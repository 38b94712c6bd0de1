package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"pcltm/internal/hist"
	"pcltm/internal/wal"
	"pcltm/store"
)

// testGuard is a guard whose failure fails the test instead of exiting.
func testGuard(t *testing.T) *guard {
	t.Helper()
	g := startGuard(2*time.Minute, 0, func(msg string) { t.Error(msg) })
	t.Cleanup(g.stop)
	return g
}

func testOptions(workload string) options {
	return options{workload: workload, seed: 7, seconds: 1}
}

// TestPaceReleasesEveryDueArrivalPerWake checks that the pacer keeps
// its schedule when the gap between arrivals is far below the timer
// grid: it must release due arrivals in bursts, not sleep once each.
func TestPaceReleasesEveryDueArrivalPerWake(t *testing.T) {
	const n = 2000
	interval := 25 * time.Microsecond // 40 000 per second, 50 ms in all
	late := hist.New()
	var got []int
	start := time.Now()
	pace(start, n, interval, late, func(i int, _ time.Time) { got = append(got, i) })
	elapsed := time.Since(start)
	if len(got) != n || !sort.IntsAreSorted(got) || got[n-1] != n-1 {
		t.Fatalf("released %d arrivals, want %d in order", len(got), n)
	}
	if late.Count() != n {
		t.Fatalf("lateness recorded %d times, want %d", late.Count(), n)
	}
	// One sleep per arrival would take n timer-grid wakes (about 2 s);
	// releasing in bursts takes the schedule's 50 ms plus one wake.
	if elapsed > 500*time.Millisecond {
		t.Fatalf("pacing %d arrivals of a 50ms schedule took %s", n, elapsed)
	}
}

// TestStallShowsInLatencyOrLateness is the coordinated-omission check:
// a stall planted in the served path must show in the latency the
// benchmark reports (requests are timed from release, so arrivals that
// queue behind the stall count it), and a stall of the generator itself
// must show in the lateness it reports.
func TestStallShowsInLatencyOrLateness(t *testing.T) {
	const (
		rate  = 2000.0
		n     = 1000
		stall = 100 * time.Millisecond
	)
	t.Run("handler", func(t *testing.T) {
		var once sync.Once
		var mu sync.Mutex
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Query().Get("i") == "200" {
				// Stall the whole server, as a collector pause would.
				once.Do(func() {
					mu.Lock()
					time.Sleep(stall)
					mu.Unlock()
				})
			}
			mu.Lock()
			mu.Unlock()
			w.WriteHeader(http.StatusOK)
		}))
		defer srv.Close()
		c := srv.Client()
		ph := openLoop(n, rate, conns, 100*time.Millisecond, nil, testGuard(t), func(_, i int) (uint8, bool) {
			resp, err := c.Get(srv.URL + "/?i=" + strconv.Itoa(i))
			if err != nil {
				return classGet, false
			}
			resp.Body.Close()
			return classGet, resp.StatusCode == http.StatusOK
		})
		p99 := time.Duration(ph.merged(classGet).Quantile(0.99))
		late := time.Duration(ph.late.Quantile(0.99))
		if p99 < stall/2 && late < stall/2 {
			t.Fatalf("a %s handler stall is invisible: latency p99 %s, lateness p99 %s", stall, p99, late)
		}
	})
	t.Run("generator", func(t *testing.T) {
		late := hist.New()
		var once sync.Once
		pace(time.Now(), n, time.Duration(float64(time.Second)/rate), late, func(i int, _ time.Time) {
			if i == 200 {
				once.Do(func() { time.Sleep(stall) })
			}
		})
		if got := time.Duration(late.Quantile(0.99)); got < stall/2 {
			t.Fatalf("a %s generator stall is invisible: lateness p99 %s", stall, got)
		}
	})
}

func smallMixed() mixedWorkload {
	return mixedWorkload{keys: 512, rate: 1000, open: 300 * time.Millisecond, sat: 200 * time.Millisecond}
}

func smallAudit() auditWorkload {
	return auditWorkload{keys: 256, rate: 500, round: 300 * time.Millisecond}
}

func smallSkew() skewWorkload {
	return skewWorkload{keys: 1024, dur: 300 * time.Millisecond}
}

// skipIncrement plants a lost update: one acknowledged increment of key
// 3 disappears from the store.
func skipIncrement(st *store.Store[int64, int64]) {
	st.Update(3, func(v int64, _ bool) int64 { return v - 1 })
}

// dropTail plants a recovered image that is missing the newest writes:
// the last segment loses its final bytes, as if they were never synced.
func dropTail(image *wal.MemBackend) error {
	names, err := image.List()
	if err != nil || len(names) == 0 {
		return err
	}
	last := names[len(names)-1]
	b, err := image.Load(last)
	if err != nil {
		return err
	}
	return image.Truncate(last, len(b)*3/4)
}

// TestChecksPassOnTheSeedAndFailOnPlantedFaults runs each workload in
// miniature twice: as is, where every check must pass with no failed
// operation, and with a planted fault, which must fail the run.
func TestChecksPassOnTheSeedAndFailOnPlantedFaults(t *testing.T) {
	cases := []struct {
		name  string
		run   func(g *guard, planted bool) (*outcome, error)
		fault string
	}{
		{"kv-mixed", func(g *guard, planted bool) (*outcome, error) {
			w := smallMixed()
			if planted {
				w.plant = skipIncrement
			}
			return runKVMixed(testOptions("kv-mixed"), g, w)
		}, "skipped increment"},
		{"kv-audit", func(g *guard, planted bool) (*outcome, error) {
			w := smallAudit()
			if planted {
				w.plant = dropTail
			}
			return runKVAudit(testOptions("kv-audit"), g, w)
		}, "recovered image missing writes"},
		{"store-skew", func(g *guard, planted bool) (*outcome, error) {
			w := smallSkew()
			if planted {
				w.plant = skipIncrement
			}
			return runStoreSkew(testOptions("store-skew"), g, w)
		}, "skipped increment"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := c.run(testGuard(t), false)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.bad) > 0 || out.failed > 0 || out.attempted == 0 {
				t.Fatalf("unplanted run: attempted %d, failed %d, checks failed: %v", out.attempted, out.failed, out.bad)
			}
			for _, m := range endToEnd {
				if v := out.vals[m.name]; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want a positive measurement", m.name, v)
				}
			}
			out, err = c.run(testGuard(t), true)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.bad) == 0 {
				t.Fatalf("a planted %s passed every check", c.fault)
			}
		})
	}
}

// TestTracedRunReportsItsLayers checks that a traced kv-audit round
// reports the layers it exercises.
func TestTracedRunReportsItsLayers(t *testing.T) {
	opt := testOptions("kv-audit")
	opt.trace = true
	out, err := runKVAudit(opt, testGuard(t), smallAudit())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"server.write_us_p50", "server.cross_us_p50", "net.write_us_p50", "wal.append_us_p50",
		"wal.sync_us_p99", "wal.appends_per_sync", "certify.txns", "certify.build_s", "server.history_s",
	} {
		if v := out.vals[name]; !(v > 0) {
			t.Errorf("%s = %v, want a positive measurement", name, v)
		}
	}
	if len(out.spans) == 0 {
		t.Fatal("a traced run kept no spans")
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the metric and workload names
// the program reports in step with BENCHMARK.json.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not one the program runs", w.Name)
		}
	}
	same := func(what string, json []struct{ Name, Unit string }, prog []metric) {
		if len(json) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(json), len(prog))
			return
		}
		for i := range prog {
			if json[i].Name != prog[i].name || json[i].Unit != prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program %s (%s)", what, i, json[i].Name, json[i].Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestMergePartsTakesMediansAndSumsCounts checks how a run folds its
// parts: each metric is the median over the parts that report it,
// operation counts add up, and a check failed in any part fails the run.
func TestMergePartsTakesMediansAndSumsCounts(t *testing.T) {
	part := func(p50, only float64, attempted, failed uint64, bad ...string) *outcome {
		o := newOutcome()
		o.set("p50_us", p50)
		if only > 0 {
			o.set("client.get_p99_us", only)
		}
		o.attempted, o.failed, o.bad = attempted, failed, bad
		return o
	}
	out := mergeParts([]*outcome{
		part(300, 0, 100, 0),
		part(100, 7, 100, 1, "part 2: key sum off"),
		part(200, 0, 200, 0),
	})
	if got := out.vals["p50_us"]; got != 200 {
		t.Errorf("p50_us = %v, want the median 200", got)
	}
	if got := out.vals["client.get_p99_us"]; got != 7 {
		t.Errorf("a metric one part reports = %v, want 7", got)
	}
	if out.attempted != 400 || out.failed != 1 || out.vals["client.err_frac"] != 1.0/400 {
		t.Errorf("attempted %d, failed %d, err_frac %v; want 400, 1, 1/400", out.attempted, out.failed, out.vals["client.err_frac"])
	}
	if len(out.bad) != 1 {
		t.Errorf("failed checks %v, want the one from part 2", out.bad)
	}
}

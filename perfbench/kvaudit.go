package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"pcltm/internal/certify"
	"pcltm/internal/hist"
	"pcltm/internal/trace"
	"pcltm/internal/wal"
	"pcltm/server"
	"pcltm/stm"
	"pcltm/store"
)

// auditWorkload sizes kv-audit: one round of load, crash recovery and
// certification.
type auditWorkload struct {
	keys  int
	rate  float64       // open-loop arrivals per second
	round time.Duration // open-loop load
	// plant, when set, damages the crash image before recovery: the
	// hook the benchmark's own tests plant a fault through.
	plant func(image *wal.MemBackend) error
}

// auditSpec sizes a round. The recorded history is certified whole,
// and certification on the seed grows with the square of the history,
// so the load stays short enough to certify in a few seconds; a run
// measures more rounds, not longer ones (see partsFor).
func auditSpec(options) auditWorkload {
	return auditWorkload{keys: 1024, rate: 1000, round: 1200 * time.Millisecond}
}

// auditEvery is how many measured seconds each kv-audit round stands
// for: its load plus its recovery and certification.
const auditEvery = 4 * time.Second

// auditSetups is how many times a round sets up its server; the last
// one takes the load. A durable set-up of 1 024 keys takes a few
// milliseconds, so one sample would be mostly noise.
const auditSetups = 5

func runKVAudit(opt options, g *guard, w auditWorkload) (*outcome, error) {
	out := newOutcome()
	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	lane := tr.newLane()
	puts := hist.New()
	var times []float64
	var s *served
	var pre []int64
	var preSum int64
	var rng *rand.Rand
	for i := 0; i < auditSetups; i++ {
		if s != nil {
			g.enter("shutdown", shutdownDeadline)
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("shutdown: %w", err)
			}
		}
		settle()
		g.enter("setup", setupDeadline)
		t0 := time.Now()
		cfg := server.Config{Partitions: partitions, Engine: stm.EngineTL2, Record: true, WALAck: wal.AckGroup}
		var err error
		if s, err = startServed(cfg, wal.NewMemBackend(), tr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		rng = rand.New(rand.NewSource(opt.seed))
		pre, preSum = preload(s.srv.Store(), w.keys, rng, puts, tr, lane)
		times = append(times, time.Since(t0).Seconds())
	}
	out.set("setup_s", median(times))
	setQuantiles(out, puts, "store.preload_put_us_p50", "store.preload_put_us_p99")

	live := s.srv.Store()
	n := int(w.rate * w.round.Seconds())
	arrivals := make([]arrival, n)
	for i := range arrivals {
		arrivals[i] = auditArrival(rng, w.keys, live.PartitionOf)
	}
	led := &ledger{pre: pre}
	clients := make([]*client, conns)
	for i := range clients {
		clients[i] = &client{s: s, lane: tr.newLane()}
	}
	settle()

	st0, rt0 := s.srv.StatsSnapshot(), sampleRuntime()
	g.enter("load", w.round+loadSlack)
	tr.startToggling()
	ph := openLoop(n, w.rate, conns, w.round, tr, g, func(wk, i int) (uint8, bool) {
		a := &arrivals[i]
		return a.class, clients[wk].do(a, led)
	})
	tr.stopToggling()
	rt1, st1 := sampleRuntime(), s.srv.StatsSnapshot()

	for _, b := range led.bad {
		out.fail("%s", b)
	}
	checkSum(out, g, live, w.keys, preSum+led.acked.Load())
	a, err := audit(g, s, live, w, tr, lane, out)
	if err != nil {
		return nil, err
	}

	out.attempted, out.failed = ph.attempts, ph.failed
	out.set("p50_us", ph.quantile(0.50, classWrite, classCross))
	// An audited request is served, recovered from the crash image and
	// certified: the rate a user gets is requests over the wall time of
	// all three.
	out.set("ops_per_s", float64(ph.attempts)/(ph.elapsed+a.recovery+a.history+a.build+a.check).Seconds())
	out.set("rss_peak_mb", median(ph.rssPeaks(g)))
	out.set("client.p99_us", ph.quantile(0.99, classWrite, classCross))
	out.set("client.write_p50_us", ph.quantile(0.50, classWrite))
	out.set("client.write_p99_us", ph.quantile(0.99, classWrite))
	out.set("client.cross_p50_us", ph.quantile(0.50, classCross))
	out.set("client.cross_p99_us", ph.quantile(0.99, classCross))
	out.set("client.err_frac", float64(out.failed)/float64(out.attempted))
	out.set("gen.late_p50_us", us(ph.late.Quantile(0.50)))
	out.set("gen.late_p99_us", us(ph.late.Quantile(0.99)))
	cmds := st1.Cmds - st0.Cmds
	if b := st1.Batches - st0.Batches; b > 0 {
		out.set("server.cmds_per_batch", float64(cmds)/float64(b))
	}
	setSTM(out, stmTotals(st0.Store), stmTotals(st1.Store), ph.attempts)
	var c costs
	c.add(rt0, rt1, ph.attempts)
	c.set(out)
	if w0, w1 := st0.Wal, st1.Wal; w0 != nil && w1 != nil {
		if syncs := w1.Syncs - w0.Syncs; syncs > 0 {
			out.set("wal.appends_per_sync", float64(w1.Appends-w0.Appends)/float64(syncs))
		}
		if cmds > 0 {
			out.set("wal.bytes_per_cmd", float64(w1.Bytes-w0.Bytes)/float64(cmds))
		}
	}
	out.set("wal.records_replayed", float64(a.replayed))
	out.set("wal.recovery_s", a.recovery.Seconds())
	out.set("server.history_s", a.history.Seconds())
	if a.txns > 0 {
		out.set("server.history_bytes_per_txn", float64(a.bytes)/float64(a.txns))
	}
	out.set("certify.txns", float64(a.txns))
	out.set("certify.build_s", a.build.Seconds())
	out.set("certify.check_s", a.check.Seconds())
	out.set("certify.total_s", (a.build + a.check).Seconds())
	traceLayers(tr, out, ph.onOff)

	g.enter("shutdown", shutdownDeadline)
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	return out, nil
}

// auditResult is what one round's audit measured.
type auditResult struct {
	recovery, history, build, check time.Duration
	txns, replayed, bytes           int
}

// audit crashes the round's server image, recovers it and compares it
// with the live store key by key, then fetches the served history and
// certifies it strictly serializable. Failed checks are recorded in
// out; an error means the audit could not run.
func audit(g *guard, s *served, live *store.Store[int64, int64], w auditWorkload, tr *tracer, lane *lane, out *outcome) (auditResult, error) {
	var a auditResult
	g.enter("recovery", recoveryDeadline)
	// The crash image keeps only the bytes the log synced.
	image := s.mem.Clone(0)
	if w.plant != nil {
		if err := w.plant(image); err != nil {
			return a, fmt.Errorf("planting a fault: %w", err)
		}
	}
	t0 := time.Now()
	rec, scan, err := store.OpenDurable(store.DurableConfig[int64, int64]{
		Store:   store.Config{Partitions: partitions, Engine: stm.EngineTL2},
		Backend: image,
		Codec:   store.Int64Codec(),
	})
	a.recovery = time.Since(t0)
	if err != nil {
		out.fail("recovering the crash image: %v", err)
	} else {
		a.replayed = len(scan.Records)
		for k := int64(0); k < int64(w.keys); k++ {
			want, wok := live.Get(k)
			got, gok := rec.Get(k)
			if got != want || gok != wok {
				out.fail("recovered key %d = %d (found %v), live store holds %d (found %v)", k, got, gok, want, wok)
				break
			}
		}
		if err := rec.CloseWAL(); err != nil {
			return a, fmt.Errorf("closing the recovered store: %w", err)
		}
	}

	g.enter("history", historyDeadline)
	start := tr.now()
	t0 = time.Now()
	data, err := s.get("/history")
	a.history = time.Since(t0)
	if err != nil {
		return a, fmt.Errorf("GET /history: %w", err)
	}
	a.bytes = len(data)
	if tr != nil {
		lane.record(span{name: "server.history", id: tr.nextID(), start: start, end: tr.now()})
	}

	g.enter("certify", certifyDeadline)
	start = tr.now()
	t0 = time.Now()
	exec, _, err := trace.DecodeFile(data)
	if err != nil {
		return a, fmt.Errorf("decoding the served history: %w", err)
	}
	h := certify.FromExecution(exec)
	a.build = time.Since(t0)
	a.txns = len(h.Txns)
	if tr != nil {
		lane.record(span{name: "certify.build", id: tr.nextID(), start: start, end: tr.now()})
	}
	start = tr.now()
	t0 = time.Now()
	rep := certify.Check(h, certify.StrictSerializability)
	a.check = time.Since(t0)
	if tr != nil {
		lane.record(span{name: "certify.check", id: tr.nextID(), start: start, end: tr.now()})
	}
	if rep.Verdict != certify.Certified {
		out.fail("served history is not certified strictly serializable: %s", rep)
	}
	return a, nil
}

// get fetches path from the server and returns the body of a 200.
func (s *served) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return body, nil
}

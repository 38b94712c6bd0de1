// Command perfbench is the repository's end-to-end benchmark. One
// command runs one named workload, measures it, checks that every
// output is correct, and prints every metric by name and unit:
//
//	perfbench --workload kv-mixed --seed 1 --seconds 16 --trace 0
//
// Workloads (README.md records why each was chosen):
//
//   - kv-mixed: server.New on a loopback listener, in memory, 65 536 keys;
//     50% GET /kv and 50% POST /tx of 4 incr on one key, open loop at
//     8 000 req/s, then a closed-loop saturation phase.
//   - kv-audit: the same server made durable (wal.MemBackend, group ack)
//     and recorded, 1 024 keys; writes only, 10% of them atomic 4-key
//     groups over distinct partitions, open loop at 1 000 req/s, then
//     crash recovery and certification of the served history.
//   - store-skew: the store library without HTTP, 65 536 keys, two
//     goroutines closed loop over zipf-skewed keys: 90% single-key
//     read-modify-write through Store.Atomically, 10% transfers between
//     partitions through Store.Cross.
//
// A run is split into parts, each a process of its own (parts.go);
// every figure is the median over the parts. With --trace 0 the last
// line of standard output is a JSON object carrying the end-to-end
// metrics; with --trace 1 the parts record spans around every call the
// benchmark makes into a layer, write them out at the end, and the JSON
// carries the per-layer metrics instead. Lines before it are a readable
// report. A failed correctness check prints the JSON with "correct":
// false and exits 1; a phase that overruns its deadline or memory guard
// exits 3 and names the phase.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"time"
)

// metric names one reported number and its unit.
type metric struct {
	name, unit string
}

// endToEnd are the metrics a user of the store sees, reported by every
// workload of an untraced run. BENCHMARK.json lists the same names.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"p50_us", "us"},
	{"ops_per_s", "1/s"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by a traced run.
// A layer a workload does not exercise reports 0 (README.md lists which
// metric applies to which workload).
var perLayer = []metric{
	{"client.p99_us", "us"},
	{"client.write_p50_us", "us"},
	{"client.write_p99_us", "us"},
	{"client.get_p50_us", "us"},
	{"client.get_p99_us", "us"},
	{"client.cross_p50_us", "us"},
	{"client.cross_p99_us", "us"},
	{"client.max_rps", "1/s"},
	{"client.err_frac", "fraction"},
	{"server.get_us_p50", "us"},
	{"server.get_us_p99", "us"},
	{"server.write_us_p50", "us"},
	{"server.write_us_p99", "us"},
	{"server.cross_us_p50", "us"},
	{"server.cross_us_p99", "us"},
	{"net.get_us_p50", "us"},
	{"net.write_us_p50", "us"},
	{"server.cmds_per_batch", "count"},
	{"server.history_s", "s"},
	{"server.history_bytes_per_txn", "B"},
	{"stm.commits_per_op", "count"},
	{"stm.retries_per_commit", "count"},
	{"stm.lockfails_per_commit", "count"},
	{"store.tps", "1/s"},
	{"store.atomically_us_p50", "us"},
	{"store.atomically_us_p99", "us"},
	{"store.cross_us_p50", "us"},
	{"store.cross_us_p99", "us"},
	{"store.preload_put_us_p50", "us"},
	{"store.preload_put_us_p99", "us"},
	{"wal.append_us_p50", "us"},
	{"wal.sync_us_p50", "us"},
	{"wal.sync_us_p99", "us"},
	{"wal.appends_per_sync", "count"},
	{"wal.bytes_per_cmd", "B"},
	{"wal.records_replayed", "count"},
	{"wal.recovery_s", "s"},
	{"certify.txns", "count"},
	{"certify.build_s", "s"},
	{"certify.check_s", "s"},
	{"certify.total_s", "s"},
	{"gen.late_p50_us", "us"},
	{"gen.late_p99_us", "us"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.mallocs_per_op", "count"},
	{"go.gc_per_s", "1/s"},
	{"go.gc_cpu_frac", "fraction"},
	{"go.cpu_ms_per_kop", "ms"},
	{"trace.overhead_frac", "fraction"},
}

// namedFigures are the workload-specific end-to-end figures the report
// prints by name for the workloads they apply to; each is also carried
// by a per-layer metric (the second name).
var namedFigures = []struct {
	name, unit, layer string
}{
	{"p99_us", "us", "client.p99_us"},
	{"write_p50_us", "us", "client.write_p50_us"},
	{"write_p99_us", "us", "client.write_p99_us"},
	{"get_p50_us", "us", "client.get_p50_us"},
	{"get_p99_us", "us", "client.get_p99_us"},
	{"cross_p50_us", "us", "client.cross_p50_us"},
	{"cross_p99_us", "us", "client.cross_p99_us"},
	{"late_p99_us", "us", "gen.late_p99_us"},
	{"max_rps", "1/s", "client.max_rps"},
	{"store_tps", "1/s", "store.tps"},
	{"recovery_s", "s", "wal.recovery_s"},
	{"certify_s", "s", "certify.total_s"},
	{"err_frac", "fraction", "client.err_frac"},
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	part     int // the part this process runs; -1 for the run itself
}

// outcome is one run's result: every metric measured (by name), the
// operation counts and the correctness failures.
type outcome struct {
	vals      map[string]float64
	attempted uint64
	failed    uint64
	bad       []string
	// selfTime is the traced run's median self time per span name.
	selfTime map[string]float64
	// spans are a traced run's spans, written out at the end; dropped
	// counts those past the in-memory cap.
	spans   []span
	dropped uint64
}

func newOutcome() *outcome {
	return &outcome{vals: make(map[string]float64)}
}

// set records a metric value.
func (o *outcome) set(name string, v float64) { o.vals[name] = v }

// fail records a failed correctness check.
func (o *outcome) fail(format string, args ...any) {
	o.bad = append(o.bad, fmt.Sprintf(format, args...))
}

func main() {
	var opt options
	var traceFlag int
	flag.StringVar(&opt.workload, "workload", "", "workload to run: kv-mixed, kv-audit or store-skew")
	flag.Int64Var(&opt.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&opt.seconds, "seconds", 10, "measured load time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	flag.IntVar(&opt.part, "part", -1, "run only this part of a run in this process and print its raw outcome (the run starts its parts itself)")
	flag.Parse()
	opt.trace = traceFlag == 1
	if flag.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || opt.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: perfbench --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	w, ok := workloads[opt.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", opt.workload)
		os.Exit(2)
	}

	if opt.part < 0 {
		ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
		out, err := runParts(ctx, opt)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", opt.workload, err)
			// A part stopped by its guard exits 3; the run does too.
			var exit *exec.ExitError
			if errors.As(err, &exit) && exit.ExitCode() > 0 {
				os.Exit(exit.ExitCode())
			}
			os.Exit(1)
		}
		report(os.Stdout, opt, out)
		if len(out.bad) > 0 {
			os.Exit(1)
		}
		return
	}

	g := startGuard(runDeadline, memLimit, func(msg string) {
		fmt.Fprintln(os.Stderr, "perfbench: "+msg)
		os.Exit(3)
	})
	out, err := w(opt, g)
	g.stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", opt.workload, err)
		os.Exit(1)
	}
	if opt.trace {
		if err := out.writeSpans(opt); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
	}
	if err := printPart(out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// workloads maps each workload name to its run function.
var workloads = map[string]func(options, *guard) (*outcome, error){
	"kv-mixed":   func(o options, g *guard) (*outcome, error) { return runKVMixed(o, g, mixedSpec(o)) },
	"kv-audit":   func(o options, g *guard) (*outcome, error) { return runKVAudit(o, g, auditSpec(o)) },
	"store-skew": func(o options, g *guard) (*outcome, error) { return runStoreSkew(o, g, skewSpec(o)) },
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the readable summary, then the JSON result line.
func report(w io.Writer, opt options, out *outcome) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v\n", opt.workload, opt.seed, opt.seconds, opt.trace)
	fmt.Fprintf(w, "operations attempted=%d failed=%d\n", out.attempted, out.failed)
	for _, b := range out.bad {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", b)
	}
	fmt.Fprintln(w, "end-to-end:")
	for _, m := range endToEnd {
		printValue(w, m.name, m.unit, out.vals)
	}
	fmt.Fprintln(w, "workload-specific:")
	for _, m := range namedFigures {
		v, ok := out.vals[m.layer]
		if !ok {
			fmt.Fprintf(w, "  %-30s %14s %s\n", m.name, "n/a", m.unit)
			continue
		}
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", m.name, v, m.unit)
	}
	fmt.Fprintln(w, "per-layer:")
	for _, m := range perLayer {
		printValue(w, m.name, m.unit, out.vals)
	}
	if len(out.selfTime) > 0 {
		fmt.Fprintln(w, "span self time, median:")
		names := make([]string, 0, len(out.selfTime))
		for n := range out.selfTime {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-30s %14.2f us\n", n, out.selfTime[n])
		}
	}

	set := endToEnd
	if opt.trace {
		set = perLayer
	}
	res := result{
		Correct:   len(out.bad) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]resultValue, len(set)),
	}
	for _, m := range set {
		res.Metrics[m.name] = resultValue{Value: finite(out.vals[m.name]), Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		// Every field is a plain number or string; Marshal cannot fail.
		panic(err)
	}
	fmt.Fprintln(w, string(line))
}

func printValue(w io.Writer, name, unit string, vals map[string]float64) {
	v, ok := vals[name]
	if !ok {
		fmt.Fprintf(w, "  %-30s %14s %s\n", name, "n/a", unit)
		return
	}
	fmt.Fprintf(w, "  %-30s %14.4f %s\n", name, v, unit)
}

// finite maps NaN and infinities, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// Deadlines and the memory guard. A phase that overruns either fails
// the run and names the phase (guard.go).
const (
	runDeadline = 170 * time.Second
	memLimit    = 3 << 30 // resident bytes
)

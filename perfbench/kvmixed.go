package main

import (
	"fmt"
	"math/rand"
	"time"

	"pcltm/internal/hist"
	"pcltm/server"
	"pcltm/stm"
	"pcltm/store"
)

// partitions is the store's partition count in every workload.
const partitions = 4

// mixedWorkload sizes kv-mixed.
type mixedWorkload struct {
	keys int
	rate float64       // open-loop arrivals per second
	open time.Duration // open-loop phase
	sat  time.Duration // closed-loop saturation phase
	// plant, when set, runs on the store after the load and before the
	// checks: the hook the benchmark's own tests plant a fault through.
	plant func(st *store.Store[int64, int64])
}

func mixedSpec(o options) mixedWorkload {
	d := time.Duration(o.seconds * float64(time.Second))
	return mixedWorkload{
		keys: 65536,
		rate: 8000,
		open: d * 6 / 10,
		sat:  d * 4 / 10,
	}
}

// setupServed builds a server, preloads it and reports the time both
// took as setup_s; the heap is settled before and after.
func setupServed(opt options, g *guard, out *outcome, keys int, tr *tracer) (*served, *ledger, int64, error) {
	settle()
	g.enter("setup", setupDeadline)
	t0 := time.Now()
	s, err := startServed(server.Config{Partitions: partitions, Engine: stm.EngineTL2}, nil, tr)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("setup: %w", err)
	}
	puts := hist.New()
	pre, sum := preload(s.srv.Store(), keys, rand.New(rand.NewSource(opt.seed)), puts, tr, tr.newLane())
	out.set("setup_s", time.Since(t0).Seconds())
	setQuantiles(out, puts, "store.preload_put_us_p50", "store.preload_put_us_p99")
	settle()
	return s, &ledger{pre: pre}, sum, nil
}

func runKVMixed(opt options, g *guard, w mixedWorkload) (*outcome, error) {
	out := newOutcome()
	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	s, led, preSum, err := setupServed(opt, g, out, w.keys, tr)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(opt.seed + 1))
	n := int(w.rate * w.open.Seconds())
	arrivals := make([]arrival, n)
	for i := range arrivals {
		arrivals[i] = mixedArrival(rng, w.keys)
	}
	clients := make([]*client, conns)
	rngs := make([]*rand.Rand, conns)
	for i := range clients {
		clients[i] = &client{s: s, lane: tr.newLane()}
		rngs[i] = rand.New(rand.NewSource(opt.seed + 2 + int64(i)))
	}

	st0, rt0 := s.srv.StatsSnapshot(), sampleRuntime()
	g.enter("load", w.open+loadSlack)
	tr.startToggling()
	open := openLoop(n, w.rate, conns, windowDur, tr, g, func(wk, i int) (uint8, bool) {
		a := &arrivals[i]
		return a.class, clients[wk].do(a, led)
	})
	tr.stopToggling()
	rt1, st1 := sampleRuntime(), s.srv.StatsSnapshot()
	if tr != nil {
		// The saturation phase reports throughput only; it runs untraced.
		tr.on.Store(false)
	}

	g.enter("load", w.sat+loadSlack)
	sat := closedLoop(w.sat, conns, windowDur, nil, func(wk, _ int) (uint8, bool) {
		a := mixedArrival(rngs[wk], w.keys)
		return a.class, clients[wk].do(&a, led)
	})

	out.attempted = open.attempts + sat.attempts
	out.failed = open.failed + sat.failed
	out.set("p50_us", open.quantile(0.50, classGet, classWrite))
	out.set("client.p99_us", open.quantile(0.99, classGet, classWrite))
	out.set("client.write_p50_us", open.quantile(0.50, classWrite))
	out.set("client.write_p99_us", open.quantile(0.99, classWrite))
	out.set("ops_per_s", sat.rate())
	out.set("client.get_p50_us", open.quantile(0.50, classGet))
	out.set("client.get_p99_us", open.quantile(0.99, classGet))
	out.set("client.max_rps", sat.rate())
	out.set("client.err_frac", float64(out.failed)/float64(out.attempted))
	out.set("gen.late_p50_us", us(open.late.Quantile(0.50)))
	out.set("gen.late_p99_us", us(open.late.Quantile(0.99)))
	if b := st1.Batches - st0.Batches; b > 0 {
		out.set("server.cmds_per_batch", float64(st1.Cmds-st0.Cmds)/float64(b))
	}
	setSTM(out, stmTotals(st0.Store), stmTotals(st1.Store), open.attempts)
	var c costs
	c.add(rt0, rt1, open.attempts)
	c.set(out)

	if w.plant != nil {
		w.plant(s.srv.Store())
	}
	for _, b := range led.bad {
		out.fail("%s", b)
	}
	checkSum(out, g, s.srv.Store(), w.keys, preSum+led.acked.Load())
	traceLayers(tr, out, open.onOff)
	out.set("rss_peak_mb", median(append(open.rssPeaks(g), sat.rssPeaks(g)...)))
	g.enter("shutdown", shutdownDeadline)
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	return out, nil
}

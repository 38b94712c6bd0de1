package main

import (
	"fmt"
	"math/rand"
	"time"

	"pcltm/internal/hist"
	"pcltm/stm"
	"pcltm/store"
)

// skewWorkload sizes store-skew.
type skewWorkload struct {
	keys int
	dur  time.Duration // closed-loop phase
	// plant, when set, runs on the store after the load and before the
	// checks: the hook the benchmark's own tests plant a fault through.
	plant func(st *store.Store[int64, int64])
}

func skewSpec(o options) skewWorkload {
	return skewWorkload{
		keys: 65536,
		dur:  time.Duration(o.seconds * float64(time.Second)),
	}
}

// zipfS is the exponent of store-skew's zipf key draw over 65 536 keys:
// about one draw in seven lands on the hottest key, so the two
// goroutines conflict.
const zipfS = 1.1

// skewWorker is one closed-loop goroutine's generator and tally.
type skewWorker struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	lane  *lane
	acked int64 // sum of the increments committed
}

func runStoreSkew(opt options, g *guard, w skewWorkload) (*outcome, error) {
	out := newOutcome()
	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	settle()
	g.enter("setup", setupDeadline)
	t0 := time.Now()
	st := store.New[int64, int64](store.Config{Partitions: partitions, Engine: stm.EngineTL2})
	puts := hist.New()
	_, preSum := preload(st, w.keys, rand.New(rand.NewSource(opt.seed)), puts, tr, tr.newLane())
	out.set("setup_s", time.Since(t0).Seconds())
	setQuantiles(out, puts, "store.preload_put_us_p50", "store.preload_put_us_p99")
	settle()

	ws := make([]*skewWorker, conns)
	for i := range ws {
		rng := rand.New(rand.NewSource(opt.seed + 100 + int64(i)))
		ws[i] = &skewWorker{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(w.keys-1)), lane: tr.newLane()}
	}
	op := func(wk, _ int) (uint8, bool) {
		sw := ws[wk]
		traced := tr.active()
		var start int64
		if traced {
			start = tr.now()
		}
		if sw.rng.Intn(10) != 0 {
			k := int64(sw.zipf.Uint64())
			d := 1 + sw.rng.Int63n(9)
			err := st.Atomically(st.PartitionOf(k), func(tx *stm.Tx, p *store.Part[int64, int64]) error {
				v, _ := p.Get(tx, k)
				p.Put(tx, k, v+d)
				return nil
			})
			if traced {
				sw.lane.record(span{name: "store.atomically", id: tr.nextID(), start: start, end: tr.now()})
			}
			if err == nil {
				sw.acked += d
			}
			return classWrite, err == nil
		}
		from := int64(sw.zipf.Uint64())
		to := int64(sw.zipf.Uint64())
		for st.PartitionOf(to) == st.PartitionOf(from) {
			to = int64(sw.zipf.Uint64())
		}
		amount := 1 + sw.rng.Int63n(9)
		err := st.Cross(func(ct *store.CrossTx[int64, int64]) error {
			a, _ := ct.Get(from)
			b, _ := ct.Get(to)
			ct.Put(from, a-amount)
			ct.Put(to, b+amount)
			return nil
		})
		if traced {
			sw.lane.record(span{name: "store.cross", id: tr.nextID(), start: start, end: tr.now()})
		}
		return classCross, err == nil
	}

	stm0, rt0 := stmTotals(st.Stats()), sampleRuntime()
	g.enter("load", w.dur+loadSlack)
	tr.startToggling()
	ph := closedLoop(w.dur, conns, windowDur, tr, op)
	tr.stopToggling()
	rt1, stm1 := sampleRuntime(), stmTotals(st.Stats())

	out.attempted, out.failed = ph.attempts, ph.failed
	out.set("p50_us", ph.quantile(0.50, classWrite, classCross))
	out.set("client.p99_us", ph.quantile(0.99, classWrite, classCross))
	out.set("client.write_p50_us", ph.quantile(0.50, classWrite))
	out.set("client.write_p99_us", ph.quantile(0.99, classWrite))
	out.set("ops_per_s", ph.rate())
	out.set("store.tps", ph.rate())
	out.set("client.cross_p50_us", ph.quantile(0.50, classCross))
	out.set("client.cross_p99_us", ph.quantile(0.99, classCross))
	out.set("client.err_frac", float64(out.failed)/float64(out.attempted))
	setSTM(out, stm0, stm1, ph.attempts)
	var c costs
	c.add(rt0, rt1, ph.attempts)
	c.set(out)

	if w.plant != nil {
		w.plant(st)
	}
	var acked int64
	for _, sw := range ws {
		acked += sw.acked
	}
	checkSum(out, g, st, w.keys, preSum+acked)
	traceLayers(tr, out, ph.onOff)
	out.set("rss_peak_mb", median(ph.rssPeaks(g)))
	if len(out.bad) > 0 {
		out.bad = append(out.bad, fmt.Sprintf("(%d operations failed)", out.failed))
	}
	return out, nil
}

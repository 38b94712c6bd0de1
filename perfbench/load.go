package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pcltm/internal/hist"
)

// pace releases an open-loop schedule of n arrivals, one every interval
// from start. Sleeps here wake on a grid of about a millisecond, far
// coarser than the gap between arrivals, so pace never sleeps once per
// arrival: on every wake it releases, in order, each arrival already
// due, and records in late how far behind its due instant each release
// came. release must not block.
func pace(start time.Time, n int, interval time.Duration, late *hist.H, release func(i int, now time.Time)) {
	for i := 0; i < n; {
		now := time.Now()
		for ; i < n; i++ {
			due := start.Add(time.Duration(i) * interval)
			if due.After(now) {
				break
			}
			late.Record(int64(now.Sub(due)))
			release(i, now)
		}
		if i < n {
			time.Sleep(time.Until(start.Add(time.Duration(i) * interval)))
		}
	}
}

// window holds what one slice of a timed phase measured: latency per
// operation class and the operations completed.
type window struct {
	lat  [numClasses]*hist.H
	done uint64
}

func (w *window) record(class uint8, ns int64) {
	if w.lat[class] == nil {
		w.lat[class] = hist.New()
	}
	w.lat[class].Record(ns)
	w.done++
}

// phase is the merged measurement of one timed phase.
type phase struct {
	windows  []window
	winDur   time.Duration
	start    time.Time
	elapsed  time.Duration
	late     *hist.H    // open loop only: release minus due instant
	onOff    [2]*hist.H // latency with tracing off and on (traced runs)
	attempts uint64
	failed   uint64
}

// opFunc performs operation i of a phase on worker w and reports the
// operation's class and whether it succeeded.
type opFunc func(w, i int) (class uint8, ok bool)

// worker is one load goroutine's private tally.
type worker struct {
	windows []window
	onOff   [2]*hist.H
	failed  uint64
}

func newWorker(nwin int) *worker {
	return &worker{windows: make([]window, nwin), onOff: [2]*hist.H{hist.New(), hist.New()}}
}

// merge folds the workers' tallies into p.
func (p *phase) merge(ws []*worker) {
	p.onOff = [2]*hist.H{hist.New(), hist.New()}
	for _, w := range ws {
		for i := range w.windows {
			for c, h := range w.windows[i].lat {
				if h == nil {
					continue
				}
				if p.windows[i].lat[c] == nil {
					p.windows[i].lat[c] = hist.New()
				}
				p.windows[i].lat[c].Merge(h)
			}
			p.windows[i].done += w.windows[i].done
		}
		p.onOff[0].Merge(w.onOff[0])
		p.onOff[1].Merge(w.onOff[1])
		p.failed += w.failed
	}
}

// openLoop offers n arrivals at rate per second to conns workers
// through a send queue. Each operation is timed from the instant the
// pacer released it, so time spent queued behind busy workers counts.
// Latencies fall into windows of winDur by due instant. tr, when
// non-nil, tells which operations ran with tracing on.
func openLoop(n int, rate float64, conns int, winDur time.Duration, tr *tracer, g *guard, op opFunc) *phase {
	interval := time.Duration(float64(time.Second) / rate)
	span := time.Duration(n) * interval
	nwin := int((span + winDur - 1) / winDur)
	p := &phase{windows: make([]window, nwin), winDur: winDur, late: hist.New(), attempts: uint64(n)}
	type job struct {
		i   int
		rel time.Time
	}
	// Sized to the whole schedule, so the pacer never blocks on a send
	// and a stalled worker shows as latency, not as a stalled pacer.
	queue := make(chan job, n)
	ws := make([]*worker, conns)
	var wg sync.WaitGroup
	for w := range ws {
		ws[w] = newWorker(nwin)
		wg.Add(1)
		go func(w int, tally *worker) {
			defer wg.Done()
			for j := range queue {
				on := tr.active()
				class, ok := op(w, j.i)
				ns := int64(time.Since(j.rel))
				if !ok {
					tally.failed++
				}
				win := int(time.Duration(j.i) * interval / winDur)
				tally.windows[win].record(class, ns)
				tally.onOff[b2i(on)].Record(ns)
			}
		}(w, ws[w])
	}
	start := time.Now()
	p.start = start
	pace(start, n, interval, p.late, func(i int, now time.Time) { queue <- job{i: i, rel: now} })
	close(queue)
	g.enter("drain", drainDeadline)
	wg.Wait()
	p.elapsed = time.Since(start)
	p.merge(ws)
	return p
}

// closedLoop runs op on conns workers back to back for d, windows of
// winDur by start instant.
func closedLoop(d time.Duration, conns int, winDur time.Duration, tr *tracer, op opFunc) *phase {
	nwin := int((d + winDur - 1) / winDur)
	p := &phase{windows: make([]window, nwin), winDur: winDur}
	ws := make([]*worker, conns)
	var attempts atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	p.start = start
	end := start.Add(d)
	for w := range ws {
		ws[w] = newWorker(nwin)
		wg.Add(1)
		go func(w int, tally *worker) {
			defer wg.Done()
			var n int
			for ; ; n++ {
				t0 := time.Now()
				if !t0.Before(end) {
					break
				}
				on := tr.active()
				class, ok := op(w, n)
				ns := int64(time.Since(t0))
				if !ok {
					tally.failed++
				}
				tally.windows[int(t0.Sub(start)/winDur)].record(class, ns)
				tally.onOff[b2i(on)].Record(ns)
			}
			attempts.Add(uint64(n))
		}(w, ws[w])
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.attempts = attempts.Load()
	p.merge(ws)
	return p
}

// rssPeaks returns the highest resident set, in MB, of each window of
// the phase.
func (p *phase) rssPeaks(g *guard) []float64 {
	return g.rssPeaks(p.start, p.start.Add(p.elapsed), p.winDur)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// quantile is the median, over windows holding at least minWindow
// samples of the given classes, of each window's q-quantile, in
// microseconds. A per-window quantile keeps one stall from setting the
// run's figure, and the median over windows keeps the figure steady
// from run to run; a tail that recurs in most windows still shows.
func (p *phase) quantile(q float64, classes ...uint8) float64 {
	var per []float64
	for i := range p.windows {
		h := hist.New()
		for _, c := range classes {
			if p.windows[i].lat[c] != nil {
				h.Merge(p.windows[i].lat[c])
			}
		}
		if h.Count() >= minWindow(q) {
			per = append(per, us(h.Quantile(q)))
		}
	}
	if len(per) == 0 {
		// Too few samples per window: fall back to the whole phase.
		h := p.merged(classes...)
		if h.Count() == 0 {
			return 0
		}
		return us(h.Quantile(q))
	}
	return median(per)
}

// minWindow is how many samples a window needs for its q-quantile to
// have ten samples beyond it.
func minWindow(q float64) uint64 {
	return uint64(10/(1-q) + 0.5)
}

// merged is the whole phase's latency histogram over classes.
func (p *phase) merged(classes ...uint8) *hist.H {
	h := hist.New()
	for i := range p.windows {
		for _, c := range classes {
			if p.windows[i].lat[c] != nil {
				h.Merge(p.windows[i].lat[c])
			}
		}
	}
	return h
}

// achieved is operations completed per second over the whole phase,
// from the first due instant to the last completion: an open loop's
// offered rate, less whatever the server fell behind.
func (p *phase) achieved() float64 {
	var n uint64
	for i := range p.windows {
		n += p.windows[i].done
	}
	return float64(n) / p.elapsed.Seconds()
}

// rate is the median over whole windows of operations completed per
// second: a closed loop's throughput.
func (p *phase) rate() float64 {
	var per []float64
	for i := range p.windows {
		if time.Duration(i+1)*p.winDur <= p.elapsed {
			per = append(per, float64(p.windows[i].done)/p.winDur.Seconds())
		}
	}
	if len(per) == 0 {
		return p.achieved()
	}
	return median(per)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// windowDur is the slice of a timed phase each latency percentile and
// throughput figure is taken over before the median across slices.
const windowDur = 500 * time.Millisecond

// Phase deadlines (see guard).
const (
	setupDeadline    = 60 * time.Second
	drainDeadline    = 15 * time.Second
	historyDeadline  = 30 * time.Second
	recoveryDeadline = 30 * time.Second
	certifyDeadline  = 60 * time.Second
	verifyDeadline   = 30 * time.Second
	shutdownDeadline = 10 * time.Second
	// loadSlack is what a load phase may overrun its nominal length.
	loadSlack = 15 * time.Second
)

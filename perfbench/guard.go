package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// guard bounds every phase of a run: each phase has a deadline, the run
// as a whole has one, and resident memory has a ceiling. A watchdog
// goroutine checks all three and calls fail with a message naming the
// phase that overran, so a stuck or runaway phase ends the run instead
// of hanging it.
type guard struct {
	fail  func(msg string)
	limit uint64 // resident bytes

	mu       sync.Mutex
	phase    string
	started  time.Time
	deadline time.Time
	runEnd   time.Time
	rss      []rssSample // every reading the watchdog took

	done chan struct{}
	wg   sync.WaitGroup
}

// rssSample is one watchdog reading of the resident set.
type rssSample struct {
	at    time.Time
	bytes uint64
}

// guardTick is how often the watchdog looks; it bounds how far past a
// deadline a phase can run before it is stopped.
const guardTick = 20 * time.Millisecond

// startGuard starts the watchdog. fail is called at most once, from the
// watchdog goroutine.
func startGuard(run time.Duration, limit uint64, fail func(msg string)) *guard {
	now := time.Now()
	g := &guard{
		fail:     fail,
		limit:    limit,
		phase:    "start",
		started:  now,
		deadline: now.Add(run),
		runEnd:   now.Add(run),
		done:     make(chan struct{}),
	}
	g.wg.Add(1)
	go g.watch()
	return g
}

// enter starts the named phase with its own deadline.
func (g *guard) enter(phase string, d time.Duration) {
	now := time.Now()
	g.mu.Lock()
	g.phase, g.started, g.deadline = phase, now, now.Add(d)
	g.mu.Unlock()
}

// stop ends the watchdog and waits for it.
func (g *guard) stop() {
	close(g.done)
	g.wg.Wait()
}

func (g *guard) watch() {
	defer g.wg.Done()
	t := time.NewTicker(guardTick)
	defer t.Stop()
	for {
		select {
		case <-g.done:
			return
		case now := <-t.C:
			if msg := g.check(now, residentBytes()); msg != "" {
				g.fail(msg)
				return
			}
		}
	}
}

// check returns a failure message when the current phase overran.
func (g *guard) check(now time.Time, rss uint64) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.rss = append(g.rss, rssSample{at: now, bytes: rss})
	switch {
	case now.After(g.deadline):
		return fmt.Sprintf("phase %s exceeded its deadline of %s", g.phase, g.deadline.Sub(g.started).Round(time.Millisecond))
	case now.After(g.runEnd):
		return fmt.Sprintf("phase %s was running when the run exceeded its deadline", g.phase)
	case g.limit > 0 && rss > g.limit:
		return fmt.Sprintf("phase %s exceeded the memory guard: %d MB resident, limit %d MB", g.phase, rss>>20, g.limit>>20)
	}
	return ""
}

// rssPeaks splits [from, to) into windows of win and returns, in MB,
// the highest resident set the watchdog read in each window.
func (g *guard) rssPeaks(from, to time.Time, win time.Duration) []float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	peaks := make(map[int]uint64)
	for _, r := range g.rss {
		if r.at.Before(from) || !r.at.Before(to) {
			continue
		}
		w := int(r.at.Sub(from) / win)
		peaks[w] = max(peaks[w], r.bytes)
	}
	out := make([]float64, 0, len(peaks))
	for _, b := range peaks {
		out = append(out, float64(b)/(1<<20))
	}
	return out
}

// residentBytes reads the process's resident set size from
// /proc/self/statm; 0 when it cannot be read.
func residentBytes() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}

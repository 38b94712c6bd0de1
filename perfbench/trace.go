package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pcltm/internal/hist"
	"pcltm/internal/wal"
)

// Operation classes, as the client sees them. A span or latency carries
// the class of the request it belongs to.
const (
	classNone uint8 = iota
	classGet
	classWrite
	classCross
	numClasses
)

var classNames = [numClasses]string{"", "get", "write", "cross"}

// Headers a traced client sets so the server-side span joins its
// request's client span.
const (
	requestIDHeader = "X-Perfbench-Request"
	classHeader     = "X-Perfbench-Class"
)

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer's epoch; parent is the id of the span that caused it
// (0 for none).
type span struct {
	name       string
	class      uint8
	id, parent uint64
	start, end int64
}

// spanKey names a span's histogram: its name, plus its class if any.
func spanKey(name string, class uint8) string {
	if class == classNone {
		return name
	}
	return name + "." + classNames[class]
}

// laneCap bounds the spans one lane keeps; later spans still feed the
// histograms and are counted as dropped.
const laneCap = 1 << 15

// lane collects spans and their duration histograms for one goroutine,
// or, behind the tracer's mutex, for the goroutines of the program.
type lane struct {
	spans   []span
	hists   map[string]*hist.H
	dropped uint64
}

func (l *lane) record(sp span) {
	key := spanKey(sp.name, sp.class)
	h := l.hists[key]
	if h == nil {
		h = hist.New()
		l.hists[key] = h
	}
	h.Record(sp.end - sp.start)
	if len(l.spans) < laneCap {
		l.spans = append(l.spans, sp)
	} else {
		l.dropped++
	}
}

// tracer keeps the spans of a traced run in memory. Spans are recorded
// only while on is set; the run toggles it every overheadSlice so the
// difference between the traced and untraced slices measures what
// tracing costs. A nil *tracer is an untraced run: every method is a
// no-op and every call site is a plain call into the layer.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64

	mu     sync.Mutex
	shared *lane   // for spans recorded on the program's goroutines; guarded by mu
	lanes  []*lane // every lane, shared first; guarded by mu

	stopToggle chan struct{}
	toggleWG   sync.WaitGroup
}

// overheadSlice is how long tracing stays on, then off, in turn.
const overheadSlice = 100 * time.Millisecond

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.shared = &lane{hists: make(map[string]*hist.H)}
	t.lanes = []*lane{t.shared}
	t.on.Store(true)
	return t
}

// now is the time since the epoch, in nanoseconds.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// active reports whether spans are being recorded now.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

// nextID allocates a span id.
func (t *tracer) nextID() uint64 { return t.ids.Add(1) }

// newLane returns a lane for one goroutine's exclusive use.
func (t *tracer) newLane() *lane {
	if t == nil {
		return nil
	}
	l := &lane{hists: make(map[string]*hist.H)}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

// recordShared records a span from any goroutine.
func (t *tracer) recordShared(sp span) {
	t.mu.Lock()
	t.shared.record(sp)
	t.mu.Unlock()
}

// startToggling alternates tracing on and off every overheadSlice until
// stopToggling; tracing is left on afterwards.
func (t *tracer) startToggling() {
	if t == nil {
		return
	}
	t.stopToggle = make(chan struct{})
	t.toggleWG.Add(1)
	go func() {
		defer t.toggleWG.Done()
		tick := time.NewTicker(overheadSlice)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				t.on.Store(!t.on.Load())
			case <-t.stopToggle:
				t.on.Store(true)
				return
			}
		}
	}()
}

func (t *tracer) stopToggling() {
	if t == nil || t.stopToggle == nil {
		return
	}
	close(t.stopToggle)
	t.toggleWG.Wait()
	t.stopToggle = nil
}

// hist merges every lane's histogram of spans named key.
func (t *tracer) hist(key string) *hist.H {
	out := hist.New()
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range t.lanes {
		if h := l.hists[key]; h != nil {
			out.Merge(h)
		}
	}
	return out
}

// collect gathers every lane's spans, ordered by start, and the count
// of spans dropped past laneCap.
func (t *tracer) collect() ([]span, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var all []span
	var dropped uint64
	for _, l := range t.lanes {
		all = append(all, l.spans...)
		dropped += l.dropped
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start < all[j].start })
	return all, dropped
}

// selfTimes returns, per span key, the histogram of self times: each
// span's duration minus the part of it its child spans cover.
func selfTimes(spans []span) map[string]*hist.H {
	children := make(map[uint64][][2]int64)
	for _, sp := range spans {
		if sp.parent != 0 {
			children[sp.parent] = append(children[sp.parent], [2]int64{sp.start, sp.end})
		}
	}
	out := make(map[string]*hist.H)
	for _, sp := range spans {
		self := sp.end - sp.start - covered(sp.start, sp.end, children[sp.id])
		key := spanKey(sp.name, sp.class)
		h := out[key]
		if h == nil {
			h = hist.New()
			out[key] = h
		}
		h.Record(max(self, 0))
	}
	return out
}

// covered is the length of [lo, hi) that the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// traceLayers fills the per-layer metrics a traced run derives from its
// spans, the median self time of every span kind, and the tracing
// overhead from the on and off slices of the client's latencies.
func traceLayers(t *tracer, out *outcome, onOff [2]*hist.H) {
	if t == nil {
		return
	}
	for _, c := range []uint8{classGet, classWrite, classCross} {
		h := t.hist(spanKey("server.handle", c))
		if h.Count() > 0 {
			out.set("server."+classNames[c]+"_us_p50", us(h.Quantile(0.50)))
			out.set("server."+classNames[c]+"_us_p99", us(h.Quantile(0.99)))
		}
	}
	setQuantiles(out, t.hist("store.atomically"), "store.atomically_us_p50", "store.atomically_us_p99")
	setQuantiles(out, t.hist("store.cross"), "store.cross_us_p50", "store.cross_us_p99")
	if h := t.hist("wal.append"); h.Count() > 0 {
		out.set("wal.append_us_p50", us(h.Quantile(0.50)))
	}
	setQuantiles(out, t.hist("wal.sync"), "wal.sync_us_p50", "wal.sync_us_p99")

	spans, dropped := t.collect()
	out.spans, out.dropped = spans, dropped
	self := selfTimes(spans)
	out.selfTime = make(map[string]float64, len(self))
	for k, h := range self {
		out.selfTime[k] = us(h.Quantile(0.50))
	}
	// A client span's self time is the part of the request the handler
	// did not cover: HTTP transport, connection wait and queueing.
	for _, c := range []uint8{classGet, classWrite} {
		if h := self[spanKey("client.request", c)]; h != nil && h.Count() > 0 {
			out.set("net."+classNames[c]+"_us_p50", us(h.Quantile(0.50)))
		}
	}
	if onOff[0] != nil && onOff[0].Count() > 0 && onOff[1].Count() > 0 {
		out.set("trace.overhead_frac", float64(onOff[1].Quantile(0.50))/float64(onOff[0].Quantile(0.50))-1)
	}
}

// setQuantiles sets the p50 and p99 of h, in microseconds, when h has
// samples.
func setQuantiles(out *outcome, h *hist.H, p50, p99 string) {
	if h.Count() == 0 {
		return
	}
	out.set(p50, us(h.Quantile(0.50)))
	out.set(p99, us(h.Quantile(0.99)))
}

// us converts nanoseconds to microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// spansDir is where traced runs write their spans, relative to the
// repository root the benchmark runs from.
const spansDir = ".bench_build/perfbench/spans"

// writeSpans writes a traced part's spans as JSON lines, one span each.
func (o *outcome) writeSpans(opt options) error {
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d-part%d.jsonl", opt.workload, opt.seed, opt.part))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var line []byte
	for _, sp := range o.spans {
		line = append(line[:0], `{"name":"`...)
		line = append(line, spanKey(sp.name, sp.class)...)
		line = append(line, `","id":`...)
		line = strconv.AppendUint(line, sp.id, 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendUint(line, sp.parent, 10)
		line = append(line, `,"start_ns":`...)
		line = strconv.AppendInt(line, sp.start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, sp.end, 10)
		line = append(line, "}\n"...)
		if _, err := w.Write(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans (%d dropped past the in-memory cap) to %s\n",
		len(o.spans), o.dropped, path)
	return nil
}

// timedHandler wraps the server's handler with the server.handle span,
// joined to the client's span by the request id header.
type timedHandler struct {
	next http.Handler
	t    *tracer
}

func (h timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.t.active() {
		h.next.ServeHTTP(w, r)
		return
	}
	start := h.t.now()
	h.next.ServeHTTP(w, r)
	end := h.t.now()
	parent, _ := strconv.ParseUint(r.Header.Get(requestIDHeader), 10, 64)
	class, _ := strconv.ParseUint(r.Header.Get(classHeader), 10, 8)
	h.t.recordShared(span{name: "server.handle", class: uint8(class), id: h.t.nextID(), parent: parent, start: start, end: end})
}

// timedBackend is the timing wal.Backend: it passes every call through
// to the backend it wraps and records wal.append and wal.sync spans.
type timedBackend struct {
	wal.Backend
	t *tracer
}

func (b timedBackend) Create(name string) (wal.Segment, error) {
	s, err := b.Backend.Create(name)
	if err != nil {
		return nil, err
	}
	return timedSegment{Segment: s, t: b.t}, nil
}

type timedSegment struct {
	wal.Segment
	t *tracer
}

func (s timedSegment) Append(p []byte) error {
	if !s.t.active() {
		return s.Segment.Append(p)
	}
	start := s.t.now()
	err := s.Segment.Append(p)
	s.t.recordShared(span{name: "wal.append", id: s.t.nextID(), start: start, end: s.t.now()})
	return err
}

func (s timedSegment) Sync() error {
	if !s.t.active() {
		return s.Segment.Sync()
	}
	start := s.t.now()
	err := s.Segment.Sync()
	s.t.recordShared(span{name: "wal.sync", id: s.t.nextID(), start: start, end: s.t.now()})
	return err
}

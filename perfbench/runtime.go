package main

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"
)

// rtSample is a snapshot of the Go runtime's and the kernel's cost
// counters for this process. Two samples bracket a timed phase; the
// same samples are taken in traced and untraced runs.
type rtSample struct {
	at     time.Time
	mem    runtime.MemStats
	cpu    time.Duration // user plus system time
	gcCPU  float64       // seconds of CPU spent in the GC
	totCPU float64       // seconds of CPU available to the runtime
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleRuntime() rtSample {
	var s rtSample
	runtime.ReadMemStats(&s.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	ms := make([]metrics.Sample, len(cpuMetrics))
	copy(ms, cpuMetrics)
	metrics.Read(ms)
	if ms[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = ms[0].Value.Float64()
	}
	if ms[1].Value.Kind() == metrics.KindFloat64 {
		s.totCPU = ms[1].Value.Float64()
	}
	s.at = time.Now()
	return s
}

// costs accumulates runtime counter deltas over one or more timed
// phases and the operations done in them.
type costs struct {
	alloc, mallocs, gcs uint64
	cpu                 time.Duration
	gcCPU, totCPU, secs float64
	ops                 uint64
}

// add accounts ops operations done between the samples a and b.
func (c *costs) add(a, b rtSample, ops uint64) {
	c.alloc += b.mem.TotalAlloc - a.mem.TotalAlloc
	c.mallocs += b.mem.Mallocs - a.mem.Mallocs
	c.gcs += uint64(b.mem.NumGC - a.mem.NumGC)
	c.cpu += b.cpu - a.cpu
	c.gcCPU += b.gcCPU - a.gcCPU
	c.totCPU += b.totCPU - a.totCPU
	c.secs += b.at.Sub(a.at).Seconds()
	c.ops += ops
}

// set sets the go.* metrics.
func (c *costs) set(out *outcome) {
	if c.ops == 0 {
		return
	}
	n := float64(c.ops)
	out.set("go.alloc_bytes_per_op", float64(c.alloc)/n)
	out.set("go.mallocs_per_op", float64(c.mallocs)/n)
	out.set("go.gc_per_s", float64(c.gcs)/c.secs)
	if c.totCPU > 0 {
		out.set("go.gc_cpu_frac", c.gcCPU/c.totCPU)
	}
	out.set("go.cpu_ms_per_kop", float64(c.cpu)/float64(time.Millisecond)/(n/1000))
}

// settle forces two collections, as testing.B does before timing: the
// first frees what set-up left behind, the second empties the pools the
// first moved to their victim caches and returns the freed memory to
// the operating system, so the timed phase starts from a settled heap
// and its resident set shows only what the phase itself holds.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

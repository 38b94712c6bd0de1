package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
)

// A run is split into parts, each its own process running the whole
// workload (set-up, load, checks) for its share of the seconds, one
// after another; every figure the run reports is the median over its
// parts. The same binary on the same input runs 20–30% faster or slower
// from one process to the next on a small VM (memory placement), and
// only a median over processes averages that out.

// partsFor is how many parts a run of the workload has. kv-mixed's
// figures vary most from process to process, so it runs the most
// parts; kv-audit runs one round per part and one part per auditEvery
// of the measured seconds.
func partsFor(workload string, seconds float64) int {
	switch workload {
	case "kv-mixed":
		return 6
	case "kv-audit":
		return max(1, int(seconds/auditEvery.Seconds()+0.5))
	}
	return 4
}

// partSeed derives part i's input seed from the run's seed.
func partSeed(seed int64, i int) int64 {
	return seed*1_000_003 + int64(i)*7919
}

// partOutcome is the wire form of one part's outcome, printed by the
// part process and read by the run.
type partOutcome struct {
	Vals      map[string]float64 `json:"vals"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Bad       []string           `json:"bad"`
	SelfTime  map[string]float64 `json:"self_time"`
}

// printPart writes a part's outcome as one JSON line.
func printPart(out *outcome) error {
	line, err := json.Marshal(partOutcome{
		Vals: out.vals, Attempted: out.attempted, Failed: out.failed, Bad: out.bad, SelfTime: out.selfTime,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// runParts runs the workload's parts one after another, each in its own
// process, and merges their outcomes. ctx bounds the whole run: a part
// still running when it ends is killed and waited for.
func runParts(ctx context.Context, opt options) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	n := partsFor(opt.workload, opt.seconds)
	secs := strconv.FormatFloat(opt.seconds/float64(n), 'g', -1, 64)
	parts := make([]*outcome, 0, n)
	for i := 0; i < n; i++ {
		cmd := exec.CommandContext(ctx, exe,
			"--workload", opt.workload,
			"--seed", strconv.FormatInt(partSeed(opt.seed, i), 10),
			"--seconds", secs,
			"--trace", strconv.Itoa(b2i(opt.trace)),
			"--part", strconv.Itoa(i))
		cmd.Stderr = os.Stderr
		// A part must not outlive the run, however the run ends.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		stdout, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("part %d of %d: %w", i+1, n, err)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		var p partOutcome
		if err := json.Unmarshal(lines[len(lines)-1], &p); err != nil {
			return nil, fmt.Errorf("part %d of %d: reading its outcome: %w", i+1, n, err)
		}
		out := &outcome{vals: p.Vals, attempted: p.Attempted, failed: p.Failed, selfTime: p.SelfTime}
		for _, b := range p.Bad {
			out.fail("part %d: %s", i+1, b)
		}
		parts = append(parts, out)
	}
	return mergeParts(parts), nil
}

// mergeParts sums the parts' operation counts, keeps every failed
// check, and takes each metric's median over the parts that report it;
// the failed fraction is taken over the summed counts.
func mergeParts(parts []*outcome) *outcome {
	out := newOutcome()
	vals := make(map[string][]float64)
	self := make(map[string][]float64)
	for _, p := range parts {
		out.attempted += p.attempted
		out.failed += p.failed
		out.bad = append(out.bad, p.bad...)
		for k, v := range p.vals {
			vals[k] = append(vals[k], v)
		}
		for k, v := range p.selfTime {
			self[k] = append(self[k], v)
		}
	}
	for k, vs := range vals {
		out.set(k, median(vs))
	}
	if out.attempted > 0 {
		out.set("client.err_frac", float64(out.failed)/float64(out.attempted))
	}
	if len(self) > 0 {
		out.selfTime = make(map[string]float64, len(self))
		for k, vs := range self {
			out.selfTime[k] = median(vs)
		}
	}
	return out
}

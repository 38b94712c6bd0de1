package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pcltm/internal/hist"
	"pcltm/internal/wal"
	"pcltm/server"
	"pcltm/stm"
	"pcltm/store"
)

// conns is how many client connections and load goroutines a workload
// uses: the box's core count, so the client never outnumbers the cores.
const conns = 2

// served is a server.New instance on a loopback listener inside this
// process, with the client that drives it.
type served struct {
	srv      *server.Server
	mem      *wal.MemBackend // the WAL's storage on a durable server
	hs       *http.Server
	serveErr chan error
	base     string
	client   *http.Client
	tr       *tracer
}

// startServed builds the server and starts serving it. A traced run
// wraps the handler and, on a durable server, the WAL backend.
func startServed(cfg server.Config, mem *wal.MemBackend, tr *tracer) (*served, error) {
	if mem != nil {
		cfg.WAL = mem
		if tr != nil {
			cfg.WAL = timedBackend{Backend: mem, t: tr}
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close() // the listen error is the one to report
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = timedHandler{next: h, t: tr}
	}
	s := &served{
		srv:      srv,
		mem:      mem,
		hs:       &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		serveErr: make(chan error, 1),
		base:     "http://" + ln.Addr().String(),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true},
			Timeout:   30 * time.Second,
		},
		tr: tr,
	}
	go func() { s.serveErr <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for the serving goroutine, and closes
// the server (sealing its WAL when durable).
func (s *served) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.serveErr; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// preload puts one value per key 0..keys-1 through Store.Put, timing
// each put, and returns the values and their sum.
func preload(st *store.Store[int64, int64], keys int, rng *rand.Rand, puts *hist.H, tr *tracer, l *lane) ([]int64, int64) {
	vals := make([]int64, keys)
	var sum int64
	for k := range vals {
		v := rng.Int63n(1000)
		t0 := time.Now()
		var start int64
		if tr != nil {
			start = tr.now()
		}
		st.Put(int64(k), v)
		puts.Record(int64(time.Since(t0)))
		if tr != nil {
			l.record(span{name: "store.preload_put", id: tr.nextID(), start: start, end: tr.now()})
		}
		vals[k] = v
		sum += v
	}
	return vals, sum
}

// arrival is one generated client operation: a GET of keys[0], a write
// of delta four times to keys[0], or an atomic group adding delta to
// each of four distinct keys.
type arrival struct {
	class uint8
	keys  [4]int64
	delta int64
}

// mixedArrival draws a kv-mixed operation: half GETs, half single-key
// writes, uniform over keys.
func mixedArrival(rng *rand.Rand, keys int) arrival {
	k := rng.Int63n(int64(keys))
	a := arrival{delta: 1 + rng.Int63n(9), keys: [4]int64{k, k, k, k}}
	a.class = classWrite
	if rng.Intn(2) == 0 {
		a.class = classGet
	}
	return a
}

// auditArrival draws a kv-audit operation: writes only, one in ten an
// atomic group over four distinct keys that span partitions.
func auditArrival(rng *rand.Rand, keys int, partOf func(int64) int) arrival {
	a := arrival{delta: 1 + rng.Int63n(9), class: classWrite}
	if rng.Intn(10) != 0 {
		k := rng.Int63n(int64(keys))
		a.keys = [4]int64{k, k, k, k}
		return a
	}
	a.class = classCross
	for {
		seen := make(map[int64]bool, 4)
		parts := make(map[int]bool, 4)
		for i := range a.keys {
			k := rng.Int63n(int64(keys))
			for seen[k] {
				k = rng.Int63n(int64(keys))
			}
			seen[k] = true
			a.keys[i] = k
			parts[partOf(k)] = true
		}
		if len(parts) > 1 {
			return a
		}
	}
}

// ledger is what the client knows the store must hold: the preloaded
// values, the increments the server acknowledged, and any response
// that contradicts them.
type ledger struct {
	pre   []int64
	acked atomic.Int64

	mu  sync.Mutex
	bad []string
}

func (l *ledger) fail(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.bad) < 8 {
		l.bad = append(l.bad, fmt.Sprintf(format, args...))
	}
}

// client is one load goroutine's connection state.
type client struct {
	s    *served
	lane *lane
}

// do sends a over HTTP, checks the response against the ledger, and
// reports whether the operation succeeded.
func (c *client) do(a *arrival, led *ledger) bool {
	var req *http.Request
	var err error
	if a.class == classGet {
		req, err = http.NewRequest(http.MethodGet, c.s.base+"/kv/"+strconv.FormatInt(a.keys[0], 10), nil)
	} else {
		req, err = http.NewRequest(http.MethodPost, c.s.base+"/tx", bytes.NewReader(txBody(nil, a)))
	}
	if err != nil {
		led.fail("building request: %v", err)
		return false
	}
	tr := c.s.tr
	var id uint64
	var start int64
	traced := tr.active()
	if traced {
		id = tr.nextID()
		req.Header.Set(requestIDHeader, strconv.FormatUint(id, 10))
		req.Header.Set(classHeader, strconv.Itoa(int(a.class)))
		start = tr.now()
	}
	ok := c.roundTrip(req, a, led)
	if traced {
		c.lane.record(span{name: "client.request", class: a.class, id: id, start: start, end: tr.now()})
	}
	return ok
}

func (c *client) roundTrip(req *http.Request, a *arrival, led *ledger) bool {
	resp, err := c.s.client.Do(req)
	if err != nil {
		return false
	}
	defer func() {
		// Draining the body lets the connection carry the next request.
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		return false
	}
	if a.class == classGet {
		var kv server.KVResponse
		if err := json.NewDecoder(resp.Body).Decode(&kv); err != nil {
			return false
		}
		if k := a.keys[0]; !kv.Found || kv.Value < led.pre[k] {
			led.fail("GET /kv/%d = %d (found %v); preloaded %d and only incremented", k, kv.Value, kv.Found, led.pre[k])
		}
		return true
	}
	var tx server.TxResponse
	if err := json.NewDecoder(resp.Body).Decode(&tx); err != nil || len(tx.Results) != len(a.keys) {
		return false
	}
	for i, r := range tx.Results {
		k := a.keys[i]
		switch {
		case !r.Found:
			led.fail("incr of key %d reported the key missing", k)
		case a.class == classWrite && r.Value != tx.Results[0].Value+int64(i)*a.delta:
			led.fail("incr %d of key %d returned %d, want %d", i, k, r.Value, tx.Results[0].Value+int64(i)*a.delta)
		case r.Value < led.pre[k]+a.delta:
			led.fail("incr of key %d returned %d, below its preload %d plus %d", k, r.Value, led.pre[k], a.delta)
		}
	}
	led.acked.Add(int64(len(a.keys)) * a.delta)
	return true
}

// txBody encodes a as a POST /tx body of four incr commands.
func txBody(b []byte, a *arrival) []byte {
	b = append(b, `{"cmds":[`...)
	for i, k := range a.keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"op":"incr","key":`...)
		b = strconv.AppendInt(b, k, 10)
		b = append(b, `,"value":`...)
		b = strconv.AppendInt(b, a.delta, 10)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// stmTotals sums every partition's engine counters.
func stmTotals(st []stm.Stats) stm.Stats {
	var t stm.Stats
	for _, s := range st {
		t.Commits += s.Commits
		t.Aborts += s.Aborts
		t.Retries += s.Retries
		t.LockFails += s.LockFails
	}
	return t
}

// setSTM sets the stm.* metrics from counter totals before and after
// ops operations.
func setSTM(out *outcome, a, b stm.Stats, ops uint64) {
	commits := b.Commits - a.Commits
	if ops > 0 {
		out.set("stm.commits_per_op", float64(commits)/float64(ops))
	}
	if commits > 0 {
		out.set("stm.retries_per_commit", float64(b.Retries-a.Retries)/float64(commits))
		out.set("stm.lockfails_per_commit", float64(b.LockFails-a.LockFails)/float64(commits))
	}
}

// checkSum reads every key back through the store and checks the sum
// against want: the preload plus every acknowledged increment.
func checkSum(out *outcome, g *guard, st *store.Store[int64, int64], keys int, want int64) {
	g.enter("verify", verifyDeadline)
	var sum int64
	for k := 0; k < keys; k++ {
		v, ok := st.Get(int64(k))
		if !ok {
			out.fail("key %d missing after the load", k)
			return
		}
		sum += v
	}
	if sum != want {
		out.fail("key sum %d after the load, want %d (preload plus acknowledged increments)", sum, want)
	}
}

package main

import (
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// result is one HTTP request's outcome. lat runs from the moment the
// request was due: the arrival's intended send time, or for a later
// page of a cursor walk the moment the previous page arrived.
type result struct {
	lat time.Duration
	ok  bool
	// end is when the response (or the failure) arrived.
	end time.Time
}

// serveFunc performs arrival i, due at intended, on one of the loop's
// connections (worker), and returns the outcome of every HTTP request
// it made.
type serveFunc func(worker, i int, intended time.Time) []result

// openLoopStats is what an open loop measured.
type openLoopStats struct {
	// results holds every request's outcome in arrival order.
	results []result
	// late is how far behind schedule the dispatcher handed each
	// arrival to the queue: the generator's own lag, not the system's.
	late []time.Duration
	// backlogMax is the most arrivals ever queued and not yet begun.
	backlogMax int
}

// drainGrace bounds how long an open loop keeps serving its queue after
// the last arrival is due.
const drainGrace = 5 * time.Second

// runOpenLoop sends arrival i at start+offsets[i] whatever the state of
// earlier ones, over conns connections. An arrival that finds every
// connection busy waits in the queue, and its latency still runs from
// its intended time, so a stall is charged to every request it delays.
func runOpenLoop(offsets []time.Duration, conns int, serve serveFunc) openLoopStats {
	type job struct {
		i        int
		intended time.Time
	}
	var (
		st    = openLoopStats{late: make([]time.Duration, len(offsets))}
		queue = make(chan job, len(offsets)) // one slot per send: the dispatcher never blocks
		begun atomic.Int64
		byIdx = make([][]result, len(offsets))
		wg    sync.WaitGroup
		start = time.Now().Add(5 * time.Millisecond)
	)
	var end time.Time
	if len(offsets) > 0 {
		end = start.Add(offsets[len(offsets)-1]).Add(drainGrace)
	}
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range queue {
				begun.Add(1)
				// Still queued drainGrace after the schedule ended: the
				// arrival counts as one failed request, never sent.
				if now := time.Now(); now.After(end) {
					byIdx[j.i] = []result{{lat: now.Sub(j.intended), ok: false, end: now}}
					continue
				}
				byIdx[j.i] = serve(w, j.i, j.intended)
			}
		}(w)
	}
	for i, off := range offsets {
		intended := start.Add(off)
		if d := time.Until(intended); d > 0 {
			time.Sleep(d)
		}
		st.late[i] = time.Since(intended)
		if b := i - int(begun.Load()); b > st.backlogMax {
			st.backlogMax = b
		}
		queue <- job{i, intended}
	}
	close(queue)
	wg.Wait()
	for _, res := range byIdx {
		st.results = append(st.results, res...)
	}
	return st
}

// runClosedLoop keeps conns connections sending back to back for d and
// returns every outcome.
func runClosedLoop(d time.Duration, conns int, serve serveFunc) []result {
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next atomic.Int64
		all  []result
	)
	deadline := time.Now().Add(d)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				res := serve(w, int(next.Add(1)-1), time.Now())
				mu.Lock()
				all = append(all, res...)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return all
}

// client sends a workload's requests to the server over keep-alive
// connections and keeps the bodies of the responses it samples.
type client struct {
	base string
	http *http.Client
}

// requestTimeout fails a request the server has not answered in time.
const requestTimeout = 10 * time.Second

func newClient(base string, conns int) *client {
	return &client{base: base, http: &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// traceHeader asks a traced run's server to record a span around the
// request; its value is the arrival's index.
const traceHeader = "X-Perfbench-Trace"

// do performs r due at intended, following a cursor walk to its end.
// It asks for gzip, as a browser does, but leaves the body compressed:
// inflating every response would spend the CPU the server is measured
// on. With keep it also returns every body, as received. A non-empty
// trace is sent as traceHeader.
func (c *client) do(r *request, intended time.Time, keep bool, trace string) ([]result, [][]byte) {
	var (
		out    []result
		bodies [][]byte
		cursor string
		due    = intended
	)
	for {
		req, err := http.NewRequest(http.MethodGet, c.base+r.path(cursor), nil)
		if err != nil {
			panic(err) // paths are built by request.path
		}
		req.Header.Set("Accept-Encoding", "gzip")
		if trace != "" {
			req.Header.Set(traceHeader, trace)
		}
		resp, err := c.http.Do(req)
		if err != nil {
			now := time.Now()
			return append(out, result{lat: now.Sub(due), ok: false, end: now}), bodies
		}
		var body []byte
		if keep {
			body, err = io.ReadAll(resp.Body)
		} else {
			_, err = io.Copy(io.Discard, resp.Body)
		}
		resp.Body.Close()
		now := time.Now()
		ok := err == nil && resp.StatusCode == http.StatusOK
		out = append(out, result{lat: now.Sub(due), ok: ok, end: now})
		if keep {
			bodies = append(bodies, body)
		}
		cursor = resp.Header.Get("X-Next-Cursor")
		if !ok || r.kind != kindWalk || cursor == "" {
			return out, bodies
		}
		due = now
	}
}

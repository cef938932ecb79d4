package main

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A handler that stalls must be charged for every request the stall
// delays: latencies run from intended send times, and the generator
// keeps its schedule instead of waiting for the stalled reply.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 5 {
			time.Sleep(stall)
		}
		w.Write([]byte("[]"))
	}))
	defer srv.Close()
	cl := newClient(srv.URL, 1)
	defer cl.close()

	offsets := make([]time.Duration, 60) // 100 req/s for 0.6s
	for i := range offsets {
		offsets[i] = time.Duration(i) * 10 * time.Millisecond
	}
	r := &request{kind: kindLatest}
	var mu sync.Mutex
	lat := make([]time.Duration, len(offsets))
	st := runOpenLoop(offsets, 1, func(_, i int, due time.Time) []result {
		res, _ := cl.do(r, due, false, "")
		mu.Lock()
		lat[i] = res[0].lat
		mu.Unlock()
		return res
	})
	if len(st.results) != len(offsets) {
		t.Fatalf("%d results for %d arrivals", len(st.results), len(offsets))
	}
	// Arrival 4 hits the stall; arrivals due during it queue behind it
	// on the one connection and must each be charged the wait.
	if lat[4] < stall {
		t.Errorf("stalled request latency %v, want >= %v", lat[4], stall)
	}
	delayed := 0
	for i := 5; i < len(lat); i++ {
		if lat[i] > 100*time.Millisecond {
			delayed++
		}
	}
	if delayed < 15 {
		t.Errorf("only %d requests after the stall were charged for it, want >= 15", delayed)
	}
	if want := int(stall/(10*time.Millisecond)) / 2; st.backlogMax < want {
		t.Errorf("backlog peaked at %d, want >= %d", st.backlogMax, want)
	}
	// The dispatcher itself never waited for the stalled reply.
	if p := percentile(msOf(st.late), 90); p > 30 {
		t.Errorf("generator p90 lateness %.1fms: it waited for the system", p)
	}
}

// A closed loop, by contrast, sends nothing while its request stalls.
func TestClosedLoopWaitsForStall(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(200 * time.Millisecond)
		}
		w.Write([]byte("[]"))
	}))
	defer srv.Close()
	cl := newClient(srv.URL, 1)
	defer cl.close()
	r := &request{kind: kindLatest}
	res := runClosedLoop(100*time.Millisecond, 1, func(_, _ int, due time.Time) []result {
		out, _ := cl.do(r, due, false, "")
		return out
	})
	if len(res) != 1 {
		t.Errorf("closed loop sent %d requests during a 200ms stall, want 1", len(res))
	}
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// Only requests that carry the trace header get a server span, and the
// span sits inside the time the client measured for that request.
func TestTracedRequestsRecordServerSpans(t *testing.T) {
	tr := newTracer()
	srv := httptest.NewServer(traceRequests(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		w.Write([]byte("[]"))
	}), tr))
	defer srv.Close()
	cl := newClient(srv.URL, 1)
	defer cl.close()
	r := &request{kind: kindLatest}

	if res, _ := cl.do(r, time.Now(), false, ""); !res[0].ok {
		t.Fatal("untraced request failed")
	}
	if len(tr.spans) != 0 {
		t.Fatalf("untraced request recorded %d spans", len(tr.spans))
	}
	res, _ := cl.do(r, time.Now(), false, "7")
	if !res[0].ok {
		t.Fatal("traced request failed")
	}
	if len(tr.spans) != 1 {
		t.Fatalf("traced request recorded %d spans, want 1", len(tr.spans))
	}
	sp := tr.spans[0]
	if sp.Name != "server" || sp.Arrival != 7 {
		t.Errorf("span %+v, want server span of arrival 7", sp)
	}
	if d := time.Duration(sp.EndNs - sp.StartNs); d < 2*time.Millisecond || d > res[0].lat {
		t.Errorf("server span %v, want between the handler's 2ms and the client's %v", d, res[0].lat)
	}
}

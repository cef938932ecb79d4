package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/catalog"
	"repro/internal/tsdb"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one arrival share its index; Parent links a
// deeper replay of a request to the shallower one it stands under.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Arrival int    `json:"arrival"`
	Page    int    `json:"page,omitempty"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) record(name string, parent, arrival, page int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Arrival: arrival, Page: page,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()})
	return id
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// depthTimes holds one replay depth's per-page durations, indexed by
// arrival then page.
type depthTimes [][]time.Duration

// replayStats is what the three-depth replay measured.
type replayStats struct {
	handler, service, store depthTimes
	respBytes               int64
	pages                   int
	returned                int64
	scanned                 uint64
}

// replay runs reqs again at three depths, each on its own Service over
// db so every depth starts from the same result-cache state: the HTTP
// handler in-process, the Service method, and the store reads for the
// matched keys. Each depth's time minus the depth below is the upper
// layer's self time.
func replay(db *tsdb.DB, cat *catalog.Catalog, reqs []*request, tr *tracer) (replayStats, error) {
	var rs replayStats
	svcHTTP, _ := newService(db, cat)
	h := svcHTTP.Handler()
	parents := make([][]int, len(reqs))
	rs.handler = make(depthTimes, len(reqs))
	for i, r := range reqs {
		cursor := ""
		for page := 0; ; page++ {
			hr := httptest.NewRequest(http.MethodGet, r.path(cursor), nil)
			hr.Header.Set("Accept-Encoding", "gzip")
			rec := httptest.NewRecorder()
			t0 := time.Now()
			h.ServeHTTP(rec, hr)
			t1 := time.Now()
			if rec.Code != http.StatusOK {
				return rs, fmt.Errorf("replay %s: status %d", r.path(cursor), rec.Code)
			}
			rs.handler[i] = append(rs.handler[i], t1.Sub(t0))
			parents[i] = append(parents[i], tr.record("archive.http", 0, i, page, t0, t1))
			rs.respBytes += int64(rec.Body.Len())
			rs.pages++
			cursor = rec.Header().Get("X-Next-Cursor")
			if r.kind != kindWalk || cursor == "" {
				break
			}
		}
	}

	svc, _ := newService(db, cat)
	rs.service = make(depthTimes, len(reqs))
	res := make([]string, len(reqs))
	for i, r := range reqs {
		cursor := ""
		for page := 0; ; page++ {
			q := r.query(cursor)
			if r.kind == kindRollup {
				eff, err := svc.EffectiveResolution(q)
				if err != nil {
					return rs, err
				}
				res[i] = eff
			}
			t0 := time.Now()
			next, err := callService(svc, r, q)
			t1 := time.Now()
			if err != nil {
				return rs, fmt.Errorf("replay service %s: %w", r.path(cursor), err)
			}
			rs.service[i] = append(rs.service[i], t1.Sub(t0))
			tr.record("archive.query", parentOf(parents, i, page), i, page, t0, t1)
			cursor = next
			if cursor == "" {
				break
			}
		}
	}

	scanned0 := scannedPoints(db)
	rs.store = make(depthTimes, len(reqs))
	for i, r := range reqs {
		for page := 0; page < len(rs.service[i]); page++ {
			t0 := time.Now()
			n, err := readStore(db, r, page, res[i])
			t1 := time.Now()
			if err != nil {
				return rs, fmt.Errorf("replay store %s: %w", r.path(""), err)
			}
			rs.returned += int64(n)
			rs.store[i] = append(rs.store[i], t1.Sub(t0))
			tr.record("tsdb.read", parentOf(parents, i, page), i, page, t0, t1)
		}
	}
	rs.scanned = scannedPoints(db) - scanned0
	return rs, nil
}

// scannedPoints counts the points reads materialized in db and its
// rollup store.
func scannedPoints(db *tsdb.DB) uint64 {
	n := db.ScannedPoints()
	if ro := db.Rollups(); ro != nil {
		n += ro.ScannedPoints()
	}
	return n
}

func parentOf(parents [][]int, i, page int) int {
	if page < len(parents[i]) {
		return parents[i][page]
	}
	return 0
}

// callService runs r's Service method and returns the next page's cursor.
func callService(svc *archive.Service, r *request, q archive.QueryRequest) (string, error) {
	switch r.kind {
	case kindLatest:
		_, err := svc.Latest(q)
		return "", err
	case kindPage, kindWalk:
		p, err := svc.QueryCursor(q)
		if err != nil || r.kind == kindPage {
			return "", err
		}
		return p.NextCursor, nil
	default:
		_, err := svc.Query(q)
		return "", err
	}
}

// readStore performs the store reads behind page `page` of r for the
// keys its filter matches, and returns how many points they returned.
// res is the tier resolution=auto picked for a rollup request.
func readStore(db *tsdb.DB, r *request, page int, res string) (int, error) {
	from, to := tickTime(r.from), tickTime(r.to)
	n := 0
	keys := db.Keys(r.filter)
	switch r.kind {
	case kindLatest:
		for _, k := range keys {
			if _, ok, err := db.Last(k); err != nil {
				return n, err
			} else if ok {
				n++
			}
		}
	case kindWindow:
		for _, k := range keys {
			pts, err := db.Query(k, from, to)
			if err != nil {
				return n, err
			}
			n += len(pts)
		}
	case kindRollup:
		width, ok := tsdb.ParseResolution(res)
		agg, _ := tsdb.ParseAgg(r.agg)
		for _, k := range keys {
			var pts []tsdb.Point
			var err error
			if ok {
				pts, err = db.Rollups().Query(tsdb.RollupKey(k, width, agg), from, to)
			} else {
				pts, err = db.Query(k, from, to)
			}
			if err != nil {
				return n, err
			}
			n += len(pts)
		}
	case kindPage, kindWalk:
		skip, left := page*r.limit, r.limit
		for _, k := range keys {
			if left == 0 {
				break
			}
			c, err := db.CountRange(k, from, to)
			if err != nil {
				return n, err
			}
			if skip >= c {
				skip -= c
				continue
			}
			pts, err := db.QueryRange(k, from, to, skip, left)
			if err != nil {
				return n, err
			}
			skip, left, n = 0, left-len(pts), n+len(pts)
		}
	}
	return n, nil
}

// flat lists every page duration of a depth, in microseconds.
func (d depthTimes) flat() []float64 {
	var out []float64
	for _, pages := range d {
		for _, t := range pages {
			out = append(out, float64(t)/float64(time.Microsecond))
		}
	}
	return out
}

// self lists, per page both depths ran, this depth's time minus the
// deeper one's, in microseconds.
func (d depthTimes) self(deeper depthTimes) []float64 {
	var out []float64
	for i := range d {
		for p := 0; p < len(d[i]) && p < len(deeper[i]); p++ {
			out = append(out, float64(d[i][p]-deeper[i][p])/float64(time.Microsecond))
		}
	}
	return out
}

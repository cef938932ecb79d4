package archive

// Tests for keyset-cursor pagination. The two-sided harness the cursor
// design demands: a differential side (concatenated cursor pages equal
// the unpaginated response and the offset pages on a quiescent store)
// and a stability side (a writer appending between every page request —
// the cursor walk delivers every walk-start point exactly once while the
// equivalent offset walk provably drifts into duplicates).

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/tsdb"
)

var cursorT0 = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)

// cursorStoreKey returns the i-th key of the hand-built cursor test
// store; the zero-padded type makes canonical order match i order.
func cursorStoreKey(i int) tsdb.SeriesKey {
	return tsdb.SeriesKey{
		Dataset: tsdb.DatasetPlacementScore,
		Type:    fmt.Sprintf("t%02d.large", i),
		Region:  "us-east-1",
		AZ:      "us-east-1a",
	}
}

// buildCursorStore hand-builds an archive of nSeries series with nPoints
// points each at a 1-minute cadence, so tests control exactly where
// concurrent appends land in the flattened stream.
func buildCursorStore(t testing.TB, nSeries, nPoints int) (*Service, *tsdb.DB) {
	t.Helper()
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < nSeries; s++ {
		k := cursorStoreKey(s)
		for i := 0; i < nPoints; i++ {
			if err := db.Append(k, cursorT0.Add(time.Duration(i)*time.Minute), float64(s*1000+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return NewService(db, catalog.Compact(1)), db
}

// cursorWalk pages through the stream via NextCursor, returning the
// concatenated flattened points. between, when non-nil, runs after every
// page request (the live-appends hook).
func cursorWalk(t testing.TB, s *Service, req QueryRequest, limit int, between func(page int)) []flatPoint {
	t.Helper()
	var got []flatPoint
	req.Limit = limit
	req.Cursor = ""
	for page := 0; ; page++ {
		if page > 100000 {
			t.Fatal("cursor walk did not terminate")
		}
		cp, err := s.QueryCursor(req)
		if err != nil {
			t.Fatalf("cursor page %d: %v", page, err)
		}
		pts := flatten(cp.Series)
		if limit > 0 && len(pts) > limit {
			t.Fatalf("cursor page %d holds %d points, limit %d", page, len(pts), limit)
		}
		got = append(got, pts...)
		if between != nil {
			between(page)
		}
		if cp.NextCursor == "" {
			return got
		}
		req.Cursor = cp.NextCursor
	}
}

// offsetWalk pages through the stream via NextOffset with the same
// between-pages hook, for the drift comparison.
func offsetWalk(t testing.TB, s *Service, req QueryRequest, limit int, between func(page int)) []flatPoint {
	t.Helper()
	var got []flatPoint
	req.Limit = limit
	for page, off := 0, 0; ; page++ {
		if page > 100000 {
			t.Fatal("offset walk did not terminate")
		}
		preq := req
		preq.Offset = off
		qp, err := s.QueryPaged(preq)
		if err != nil {
			t.Fatalf("offset page %d: %v", page, err)
		}
		got = append(got, flatten(qp.Series)...)
		if between != nil {
			between(page)
		}
		if qp.NextOffset < 0 {
			return got
		}
		off = qp.NextOffset
	}
}

// countOccurrences maps each flattened point to how often it appears.
func countOccurrences(pts []flatPoint) map[flatPoint]int {
	m := make(map[flatPoint]int, len(pts))
	for _, p := range pts {
		m[p]++
	}
	return m
}

// TestQueryCursorConcatenationEqualsUnpaginated is the differential
// side: on a quiescent store, concatenated cursor pages reproduce the
// unpaginated response exactly, for page sizes from degenerate to
// oversized, and agree with the offset pages.
func TestQueryCursorConcatenationEqualsUnpaginated(t *testing.T) {
	s, _ := buildArchive(t)
	req := QueryRequest{Dataset: tsdb.DatasetPlacementScore}
	full, err := s.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	want := flatten(full)
	if len(want) < 50 {
		t.Fatalf("archive too small for a pagination test: %d points", len(want))
	}
	for _, limit := range []int{1, 7, 64, len(want) + 10} {
		got := cursorWalk(t, s, req, limit, nil)
		if len(got) != len(want) {
			t.Fatalf("limit %d: concatenated %d points, want %d", limit, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("limit %d: point %d differs: got %+v want %+v", limit, i, got[i], want[i])
			}
		}
		viaOffset := offsetWalk(t, s, req, limit, nil)
		if len(viaOffset) != len(got) {
			t.Fatalf("limit %d: offset walk %d points, cursor walk %d", limit, len(viaOffset), len(got))
		}
		for i := range got {
			if got[i] != viaOffset[i] {
				t.Fatalf("limit %d: cursor and offset walks diverge at %d on a quiescent store", limit, i)
			}
		}
	}
	// Limit 0 = everything after the cursor in one page.
	got := cursorWalk(t, s, req, 0, nil)
	if len(got) != len(want) {
		t.Fatalf("limit 0: %d points, want %d", len(got), len(want))
	}
}

// TestCursorStableUnderLiveAppends is the headline stability test with a
// deterministic interleave: between every page request the "collector"
// appends to the lowest-sorting series, which the walk has already
// passed after the first few pages. The cursor walk must deliver every
// point that existed at walk start exactly once with no duplicates at
// all, while the identical offset walk re-reads shifted points — the
// documented drift this PR exists to fix.
func TestCursorStableUnderLiveAppends(t *testing.T) {
	const (
		nSeries = 6
		nPoints = 30
		limit   = 10
		growth  = 3
	)
	appendBurst := func(db *tsdb.DB, round int) {
		k := cursorStoreKey(0)
		for j := 0; j < growth; j++ {
			at := cursorT0.Add(time.Duration(nPoints+round*growth+j) * time.Minute)
			if err := db.Append(k, at, float64(9000+round*growth+j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	req := QueryRequest{Dataset: tsdb.DatasetPlacementScore}

	// Cursor walk under appends.
	s, db := buildCursorStore(t, nSeries, nPoints)
	full, err := s.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	start := flatten(full)
	got := cursorWalk(t, s, req, limit, func(round int) { appendBurst(db, round) })
	occ := countOccurrences(got)
	for _, p := range start {
		if occ[p] != 1 {
			t.Fatalf("cursor walk delivered walk-start point %+v %d times, want exactly 1", p, occ[p])
		}
	}
	for p, n := range occ {
		if n != 1 {
			t.Fatalf("cursor walk duplicated point %+v (%d times)", p, n)
		}
	}
	// The walk preserves the flattened (key, time) order across pages.
	for i := 1; i < len(got); i++ {
		if got[i].key < got[i-1].key ||
			(got[i].key == got[i-1].key && got[i].p.At.Before(got[i-1].p.At)) {
			t.Fatalf("cursor walk out of order at %d: %+v after %+v", i, got[i], got[i-1])
		}
	}

	// The equivalent offset walk over the identical store + append
	// schedule drifts: once the walker passes the growing series' block,
	// every append shifts later points right and the next page re-serves
	// points it already delivered.
	s2, db2 := buildCursorStore(t, nSeries, nPoints)
	gotOffset := offsetWalk(t, s2, req, limit, func(round int) { appendBurst(db2, round) })
	dups := 0
	for _, n := range countOccurrences(gotOffset) {
		if n > 1 {
			dups++
		}
	}
	if dups == 0 {
		t.Fatalf("offset walk under live appends delivered %d points with no duplicates — expected drift; is the stream no longer offset-windowed?", len(gotOffset))
	}
}

// TestCursorWalkConcurrentWriter drives the cursor walk against a truly
// concurrent writer (run under -race in CI): batches land in existing
// and brand-new series while pages stream out. Every point that existed
// when the walk started must appear exactly once, and nothing may appear
// twice.
func TestCursorWalkConcurrentWriter(t *testing.T) {
	const (
		nSeries = 8
		nPoints = 200
		limit   = 50
		rounds  = 300
	)
	s, db := buildCursorStore(t, nSeries, nPoints)
	req := QueryRequest{Dataset: tsdb.DatasetPlacementScore}
	full, err := s.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	start := flatten(full)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			batch := make([]tsdb.Entry, 0, nSeries+1)
			at := cursorT0.Add(time.Duration(nPoints+r) * time.Minute)
			for sIdx := 0; sIdx < nSeries; sIdx++ {
				batch = append(batch, tsdb.Entry{Key: cursorStoreKey(sIdx), At: at, Value: float64(r)})
			}
			// A brand-new series every few rounds exercises the key-set
			// generation guard under the walk.
			if r%10 == 0 {
				k := cursorStoreKey(nSeries + r/10)
				batch = append(batch, tsdb.Entry{Key: k, At: at, Value: float64(r)})
			}
			if _, err := db.AppendBatch(batch); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	got := cursorWalk(t, s, req, limit, nil)
	wg.Wait()

	occ := countOccurrences(got)
	for _, p := range start {
		if occ[p] != 1 {
			t.Fatalf("concurrent walk delivered walk-start point %+v %d times, want exactly 1", p, occ[p])
		}
	}
	for p, n := range occ {
		if n != 1 {
			t.Fatalf("concurrent walk duplicated point %+v (%d times)", p, n)
		}
	}
}

// TestCursorWalkEqualTimestampRuns: archives written by pre-resume-fix
// builds contain equal-timestamp points within a series, and the store
// accepts them by design. A page boundary falling inside such a run must
// resume at the run's remainder — the token's sequence component — not
// silently skip it. Walked at every page size that can split the runs.
func TestCursorWalkEqualTimestampRuns(t *testing.T) {
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	// Two series, each with runs of equal timestamps: values make every
	// point distinct so exact-once is checkable per point.
	for s := 0; s < 2; s++ {
		k := cursorStoreKey(s)
		v := 0
		for i := 0; i < 5; i++ {
			at := cursorT0.Add(time.Duration(i) * time.Minute)
			for r := 0; r < 3; r++ { // run of 3 per timestamp
				if err := db.Append(k, at, float64(s*1000+v)); err != nil {
					t.Fatal(err)
				}
				v++
			}
		}
	}
	svc := NewService(db, catalog.Compact(1))
	req := QueryRequest{Dataset: tsdb.DatasetPlacementScore}
	full, err := svc.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	want := flatten(full)
	if len(want) != 30 {
		t.Fatalf("store holds %d points, want 30", len(want))
	}
	for limit := 1; limit <= len(want)+1; limit++ {
		got := cursorWalk(t, svc, req, limit, nil)
		if len(got) != len(want) {
			t.Fatalf("limit %d: walked %d points, want %d — a boundary inside an equal-timestamp run dropped or duplicated points", limit, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("limit %d: point %d = %+v, want %+v", limit, i, got[i], want[i])
			}
		}
	}
}

// TestCursorTokenValidation: tokens are opaque but not trusted —
// malformed encodings and tokens minted for a different filter or
// window are rejected with ErrBadCursor, never silently reinterpreted.
func TestCursorTokenValidation(t *testing.T) {
	s, _ := buildCursorStore(t, 3, 10)
	req := QueryRequest{Dataset: tsdb.DatasetPlacementScore, Limit: 5}
	p0, err := s.QueryCursor(req)
	if err != nil {
		t.Fatal(err)
	}
	if p0.NextCursor == "" {
		t.Fatal("first page exhausted a 30-point stream at limit 5")
	}

	// The genuine token resumes; the same token against a different
	// filter or window must not.
	resume := req
	resume.Cursor = p0.NextCursor
	if _, err := s.QueryCursor(resume); err != nil {
		t.Fatalf("genuine token rejected: %v", err)
	}
	foreignFilter := resume
	foreignFilter.Type = cursorStoreKey(1).Type
	if _, err := s.QueryCursor(foreignFilter); !errors.Is(err, ErrBadCursor) {
		t.Fatalf("token accepted against a different filter: %v", err)
	}
	foreignWindow := resume
	foreignWindow.From = cursorT0.Add(time.Minute)
	if _, err := s.QueryCursor(foreignWindow); !errors.Is(err, ErrBadCursor) {
		t.Fatalf("token accepted against a different window: %v", err)
	}

	// A tampered token that keeps the right scope hash but rewrites the
	// timestamp to before the window must not leak pre-window points.
	winReq := QueryRequest{Dataset: req.Dataset, From: cursorT0.Add(2 * time.Minute), Limit: 5}
	tampered := winReq
	tampered.Cursor = encodeCursor(cursorScope(mustPrepare(t, s, kindCursor, winReq)), cursorStoreKey(0).String(), cursorT0, 0)
	if _, err := s.QueryCursor(tampered); !errors.Is(err, ErrBadCursor) {
		t.Fatalf("tampered out-of-window timestamp accepted: %v", err)
	}

	// Malformed encodings.
	for name, tok := range map[string]string{
		"not base64":    "!!!not-base64!!!",
		"too short":     base64.RawURLEncoding.EncodeToString([]byte{cursorVersion, 1, 2}),
		"bad key":       encodeCursor(cursorScope(mustPrepare(t, s, kindCursor, QueryRequest{Dataset: req.Dataset})), "notakey", cursorT0, 0),
		"wrong version": base64.RawURLEncoding.EncodeToString(append([]byte{99}, make([]byte, 30)...)),
	} {
		bad := req
		bad.Cursor = tok
		if _, err := s.QueryCursor(bad); !errors.Is(err, ErrBadCursor) {
			t.Errorf("%s: err = %v, want ErrBadCursor", name, err)
		}
	}

	// Cursor and offset name positions in incompatible ways.
	conflicted := resume
	conflicted.Offset = 3
	if _, err := s.QueryCursor(conflicted); err == nil {
		t.Error("cursor+offset accepted")
	}
}

// TestQueryCursorCached: a repeated cursor page is served from the
// generation-guarded cache, distinct cursors never collide, and a write
// to a depended-on shard invalidates.
func TestQueryCursorCached(t *testing.T) {
	s, db := buildCursorStore(t, 4, 20)
	req := QueryRequest{Dataset: tsdb.DatasetPlacementScore, Limit: 7}
	p0, err := s.QueryCursor(req)
	if err != nil {
		t.Fatal(err)
	}
	req1 := req
	req1.Cursor = p0.NextCursor
	p1, err := s.QueryCursor(req1)
	if err != nil {
		t.Fatal(err)
	}
	f0, f1 := flatten(p0.Series), flatten(p1.Series)
	if len(f0) == 0 || len(f1) == 0 || f0[0] == f1[0] {
		t.Fatalf("pages collide: %+v vs %+v", f0, f1)
	}
	before := s.CacheStats()
	again, err := s.QueryCursor(req1)
	if err != nil {
		t.Fatal(err)
	}
	if s.CacheStats().Hits != before.Hits+1 {
		t.Fatalf("repeated cursor page missed the cache: %+v -> %+v", before, s.CacheStats())
	}
	if len(flatten(again.Series)) != len(f1) {
		t.Fatal("cached cursor page differs from the original")
	}
	// A write to a shard the page depends on invalidates it.
	if err := db.Append(cursorStoreKey(1), cursorT0.Add(24*time.Hour), 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.QueryCursor(req1); err != nil {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st.Invalidations == 0 {
		t.Fatalf("write did not invalidate the cursor page: %+v", st)
	}
}

// TestQueryCursorHTTP walks the pages through the HTTP layer: an empty
// cursor parameter starts the walk, X-Next-Cursor/Link drive it, the
// concatenation matches the unpaginated body, and stale/foreign/mixed
// parameters are rejected with 400 and a usable message.
func TestQueryCursorHTTP(t *testing.T) {
	s, _ := buildArchive(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	getJSON := func(url string) (*http.Response, []SeriesResult) {
		t.Helper()
		resp, err := http.Get(srv.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out []SeriesResult
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && resp.StatusCode == http.StatusOK {
			t.Fatalf("%s: body not a series array: %v", url, err)
		}
		return resp, out
	}

	resp, full := getJSON("/api/v1/query?dataset=sps")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unpaginated query: %d", resp.StatusCode)
	}
	want := flatten(full)

	const limit = 23
	var got []flatPoint
	url := "/api/v1/query?dataset=sps&limit=" + strconv.Itoa(limit) + "&cursor="
	for pages := 0; ; pages++ {
		if pages > 10000 {
			t.Fatal("HTTP cursor walk did not terminate")
		}
		resp, series := getJSON(url)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cursor page %d: status %d", pages, resp.StatusCode)
		}
		got = append(got, flatten(series)...)
		next := resp.Header.Get("X-Next-Cursor")
		if next == "" {
			break
		}
		link := resp.Header.Get("Link")
		if link == "" || !strings.Contains(link, `rel="next"`) {
			t.Fatalf("page %d: next cursor without a Link header (%q)", pages, link)
		}
		// Follow the ready-made Link URL rather than building our own,
		// proving it round-trips the token unescaped-safely.
		url = strings.TrimSuffix(strings.TrimPrefix(strings.Split(link, ">")[0], "<"), ">")
	}
	if len(got) != len(want) {
		t.Fatalf("HTTP cursor pages concatenate to %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("HTTP cursor point %d differs: got %+v want %+v", i, got[i], want[i])
		}
	}

	// Mixed and malformed cursor parameters.
	for _, u := range []string{
		"/api/v1/query?dataset=sps&cursor=&offset=5",
		"/api/v1/query?dataset=sps&cursor=%21%21%21",
		"/api/v1/query?dataset=sps&cursor=" + encodeCursor(12345, "a|b|c|d", cursorT0, 0),
	} {
		resp, err := http.Get(srv.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", u, resp.StatusCode)
		}
		if !strings.Contains(strings.ToLower(string(body)), "cursor") {
			t.Errorf("%s: error body %q does not mention the cursor", u, body)
		}
	}
}

package archive

// The page engine: one function (readPage) computes every page the
// archive serves — the whole window for Query, an offset page for
// QueryPaged, a keyset-cursor page for QueryCursor.
//
// Stream order. A query's unpaginated result is a deterministic point
// stream: series in canonical key order (Keys sorts them), points within
// each series in ascending time (the store's append order). A page is a
// contiguous run of that stream regrouped under its series keys, so
// concatenating consecutive pages reproduces the unpaginated response,
// and a series straddling a page boundary appears in both pages with
// disjoint point ranges.
//
// Positions. An offset page starts O points into the stream. Writes
// between two page requests can grow series inside the window (the
// archive is append-only, so points never move or disappear), and
// offsets past the growth shift, as in any offset-paginated API over
// live data. A cursor page instead starts after a fixed position — the
// canonical key, timestamp and equal-timestamp sequence of the last
// point delivered (see cursor.go) — which appends can never move: a
// cursor walk delivers every point that existed at its start exactly
// once.
//
// Passes. A read with no skip and no limit has no page boundary: one
// fan-out copies every window. Otherwise a count pass (two binary
// searches per series, no copying) maps the page onto per-series spans
// and a copy fan-out materializes only those, so a huge window read with
// limit=1000 allocates ~1000 points, not the window. The count stops at
// the page boundary unless the caller reports the total (offset pages);
// a cursor page first seeks past the series it has fully delivered, so
// each page of a walk is O(series in the page), not O(series remaining).
//
// Invariants. The store is captured once at entry and the cache
// generations before reading (see cachedRead). Appends racing the copy
// pass only grow series past the counted prefix, so each span still
// resolves to exactly the points the count pass saw. A failed cold-block
// read fails the page with ErrColdRead instead of truncating it.

import (
	"sort"

	"repro/internal/tsdb"
)

// QueryPage is one page of a query's point stream.
type QueryPage struct {
	// Series holds the page's points grouped by series, canonical key
	// order, ascending time within each series — the same order as the
	// unpaginated response, restricted to the page window.
	Series []SeriesResult `json:"series"`
	// TotalPoints is the full (unpaginated) result's point count.
	TotalPoints int `json:"totalPoints"`
	// Offset and Limit echo the request (limit 0 = to the end).
	Offset int `json:"offset"`
	Limit  int `json:"limit"`
	// NextOffset is the offset of the page after this one, or -1 when
	// this page exhausts the stream.
	NextOffset int `json:"nextOffset"`
}

// pageSpan maps one slice of the page onto a series: take n points
// (n < 0: all) of keys[key]'s stream after skipping the first skip.
type pageSpan struct {
	key  int
	skip int
	n    int
}

// page is the engine's result. end is the stream index just past the
// page and total the points counted from the start position; end <
// total means more points follow. Without a count pass both equal the
// points copied.
type page struct {
	series     []SeriesResult
	points     int
	end, total int
}

// readPage computes the page of p's point stream over the matched keys
// that starts at pos (nil: the window start), skipping p.req.Offset
// points and holding at most p.req.Limit (0 = all remaining).
func (s *Service) readPage(p *prepared, keys []tsdb.SeriesKey, pos *cursorPos) (page, error) {
	db, plan, from, to := p.plan.db, &p.plan, p.from, p.to
	// Seek: series before the cursor's are fully delivered and are never
	// counted or locked again. Only the first remaining series can be the
	// cursor's own (keys are sorted unique); it resumes after the
	// position, every other series reads its whole window.
	own := false
	if pos != nil {
		keys = keys[sort.Search(len(keys), func(i int) bool { return keys[i].String() >= pos.key }):]
		own = len(keys) > 0 && keys[0].String() == pos.key
	}
	skip, limit := p.req.Offset, p.req.Limit
	var spans []pageSpan
	end, total := -1, -1
	if skip == 0 && limit == 0 {
		spans = make([]pageSpan, len(keys))
		for i := range spans {
			spans[i] = pageSpan{key: i, n: -1}
		}
	} else {
		// Count pass, in key order. Without a reported total it stops
		// once the page is provably full: limit points plus one more to
		// decide whether a next page exists.
		needTotal := p.kind == kindPage
		counts := make([]int, 0, len(keys))
		total = 0
		for i, k := range keys {
			var c int
			var err error
			if i == 0 && own {
				c, err = db.CountAfter(plan.key(k), pos.at, pos.seq, to)
			} else {
				c, err = db.CountRange(plan.key(k), from, to)
			}
			if err != nil {
				return page{}, err
			}
			counts = append(counts, c)
			total += c
			if !needTotal && total > limit {
				break
			}
		}
		// Map the page [skip, end) of the counted stream onto per-series
		// spans. Compare the limit against the remainder rather than
		// skip+limit against total: the sum can overflow for huge limits.
		end = total
		if limit > 0 && limit < total-skip {
			end = skip + limit
		}
		cum := 0
		for i, c := range counts {
			if lo, hi := max(skip, cum), min(end, cum+c); lo < hi {
				spans = append(spans, pageSpan{key: i, skip: lo - cum, n: hi - lo})
			}
			if cum += c; cum >= end {
				break
			}
		}
	}
	// Copy pass: only the page's points.
	slots := make([][]tsdb.Point, len(spans))
	errs := make([]error, len(spans))
	s.fanOut(len(spans), func(j int) {
		sp := spans[j]
		if k := plan.key(keys[sp.key]); sp.key == 0 && own {
			slots[j], errs[j] = db.QueryAfter(k, pos.at, pos.seq, to, sp.n)
		} else {
			slots[j], errs[j] = db.QueryRange(k, from, to, sp.skip, sp.n)
		}
	})
	if err := firstErr(errs); err != nil {
		return page{}, err
	}
	pg := page{series: make([]SeriesResult, 0, len(spans)), end: end, total: total}
	for j, sp := range spans {
		if len(slots[j]) > 0 {
			pg.points += len(slots[j])
			pg.series = append(pg.series, SeriesResult{Key: keys[sp.key], Points: slots[j]})
		}
	}
	if total < 0 {
		pg.end, pg.total = pg.points, pg.points
	}
	return pg, nil
}

// QueryPaged returns the page of the query's point stream selected by
// req.Offset and req.Limit (limit 0 = everything from the offset on).
// The page's cache entry is keyed on the page window as well as the
// filter, so distinct pages never collide.
func (s *Service) QueryPaged(req QueryRequest) (*QueryPage, error) {
	p, err := s.prepare(kindPage, req)
	if err != nil {
		return nil, err
	}
	return s.queryPaged(p)
}

// queryPaged answers a request prepared as kindPage.
func (s *Service) queryPaged(p *prepared) (*QueryPage, error) {
	return cachedRead(s, p, func(keys []tsdb.SeriesKey) (*QueryPage, int, error) {
		pg, err := s.readPage(p, keys, nil)
		if err != nil {
			return nil, 0, err
		}
		qp := &QueryPage{Series: pg.series, TotalPoints: pg.total, Offset: p.req.Offset, Limit: p.req.Limit, NextOffset: -1}
		if pg.end < pg.total {
			qp.NextOffset = pg.end
		}
		return qp, pg.points, nil
	})
}

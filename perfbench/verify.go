package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/archive"
	"repro/internal/tsdb"
)

// kept is a sampled arrival whose responses are checked after the
// timed phase, so checking costs the measured server nothing.
type kept struct {
	req    *request
	bodies [][]byte
	// lastTick is the newest tick written when the reads ran; nothing
	// writes during them.
	lastTick int
}

// decodeBody unmarshals a response body into v, inflating it first when
// the server compressed it.
func decodeBody(b []byte, v any) error {
	if len(b) >= 2 && b[0] == 0x1f && b[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(b))
		if err != nil {
			return err
		}
		if b, err = io.ReadAll(zr); err != nil {
			return err
		}
	}
	return json.Unmarshal(b, v)
}

// flatPoint is one point of a response's point stream.
type flatPoint struct {
	key tsdb.SeriesKey
	p   tsdb.Point
}

func flatten(series []archive.SeriesResult) []flatPoint {
	var out []flatPoint
	for _, s := range series {
		for _, p := range s.Points {
			out = append(out, flatPoint{s.Key, p})
		}
	}
	return out
}

func samePoints(got, want []flatPoint) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d points, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.key != w.key || !g.p.At.Equal(w.p.At) || g.p.Value != w.p.Value {
			return fmt.Errorf("point %d is %v %v=%v, want %v %v=%v", i, g.key, g.p.At, g.p.Value, w.key, w.p.At, w.p.Value)
		}
	}
	return nil
}

// effectiveWidth is the rollup bucket width, in ticks, that
// resolution=auto serves a window of span ticks from (0 = raw).
func effectiveWidth(span int) int {
	d := time.Duration(span) * tickEvery
	switch {
	case d >= 60*24*time.Hour:
		return int(tsdb.Res1d / tickEvery)
	case d >= 48*time.Hour:
		return int(tsdb.Res1h / tickEvery)
	}
	return 0
}

// expected recomputes from the seed the point stream r reads, in the
// service's order: series in canonical key order, time order within.
func (m *model) expected(r *request) []flatPoint {
	var out []flatPoint
	for _, i := range m.matching(r.filter) {
		var pts []tsdb.Point
		if r.kind == kindRollup {
			if w := effectiveWidth(r.to - r.from); w > 0 {
				agg, _ := tsdb.ParseAgg(r.agg)
				pts = m.rollup(i, r.from, r.to, w, agg)
			} else {
				pts = m.points(i, r.from, r.to)
			}
		} else {
			pts = m.points(i, r.from, r.to)
		}
		for _, p := range pts {
			out = append(out, flatPoint{m.series[i].key, p})
		}
	}
	return out
}

// check verifies one sampled arrival against the seed.
func (m *model) check(k kept) error {
	r := k.req
	if r.kind == kindLatest {
		return m.checkLatest(k)
	}
	var got []flatPoint
	for i, b := range k.bodies {
		var page []archive.SeriesResult
		if err := decodeBody(b, &page); err != nil {
			return fmt.Errorf("%s page %d: %w", r.kind, i, err)
		}
		got = append(got, flatten(page)...)
	}
	want := m.expected(r)
	if r.kind == kindPage && len(want) > r.limit {
		want = want[:r.limit]
	}
	if err := samePoints(got, want); err != nil {
		return fmt.Errorf("%s %s: %w", r.kind, r.path(""), err)
	}
	return nil
}

// checkLatest verifies a latest response: one entry per matching series,
// each the series' newest point written before the reads.
func (m *model) checkLatest(k kept) error {
	var got []archive.LatestEntry
	if len(k.bodies) != 1 {
		return fmt.Errorf("latest: %d bodies", len(k.bodies))
	}
	if err := decodeBody(k.bodies[0], &got); err != nil {
		return fmt.Errorf("latest: %w", err)
	}
	idx := m.matching(k.req.filter)
	if len(got) != len(idx) {
		return fmt.Errorf("latest %s: %d entries, want %d", k.req.path(""), len(got), len(idx))
	}
	seen := map[int]bool{}
	for _, e := range got {
		i, ok := m.index[e.Key]
		if !ok || seen[i] {
			return fmt.Errorf("latest: unexpected or repeated key %v", e.Key)
		}
		seen[i] = true
		if p, ok := m.last(i, k.lastTick); !ok || !p.At.Equal(e.At) || p.Value != e.Value {
			return fmt.Errorf("latest %v: %v=%v, want %v=%v", e.Key, e.At, e.Value, p.At, p.Value)
		}
	}
	return nil
}

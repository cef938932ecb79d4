package main

import (
	"math/rand/v2"
	"net/url"
	"strconv"
	"time"

	"repro/internal/archive"
	"repro/internal/tsdb"
)

// kind is the shape of one read.
type kind int

const (
	kindLatest kind = iota // GET /api/v1/latest over a dataset x region
	kindPage               // first cursor page of a multi-series window
	kindWindow             // one series' raw window, unpaginated
	kindWalk               // cursor walk over one series, followed to the end
	kindRollup             // long window at resolution=auto (a rollup tier)
)

var kindNames = [...]string{"latest", "page", "window", "walk", "rollup"}

func (k kind) String() string { return kindNames[k] }

// request is one read a user issues. Windows are whole ticks, both ends
// inclusive.
type request struct {
	kind     kind
	filter   tsdb.KeyFilter
	from, to int
	limit    int
	agg      string
}

// pageLimit is the dashboard page size; walkLimit the export page size.
const (
	pageLimit = 300
	walkLimit = 200
)

// query renders r as the service's request type, resuming at cursor for
// paginated kinds.
func (r *request) query(cursor string) archive.QueryRequest {
	q := archive.QueryRequest{Dataset: r.filter.Dataset, Type: r.filter.Type, Region: r.filter.Region, AZ: r.filter.AZ}
	if r.kind != kindLatest {
		q.From, q.To = tickTime(r.from), tickTime(r.to)
	}
	switch r.kind {
	case kindPage, kindWalk:
		q.Limit, q.Cursor = r.limit, cursor
	case kindRollup:
		q.Resolution, q.Agg = "auto", r.agg
	}
	return q
}

// path renders r as an HTTP request path, resuming at cursor for
// paginated kinds.
func (r *request) path(cursor string) string {
	v := url.Values{}
	set := func(k, s string) {
		if s != "" {
			v.Set(k, s)
		}
	}
	set("dataset", r.filter.Dataset)
	set("type", r.filter.Type)
	set("region", r.filter.Region)
	set("az", r.filter.AZ)
	if r.kind == kindLatest {
		return "/api/v1/latest?" + v.Encode()
	}
	v.Set("from", tickTime(r.from).Format(time.RFC3339))
	v.Set("to", tickTime(r.to).Format(time.RFC3339))
	switch r.kind {
	case kindPage, kindWalk:
		v.Set("limit", strconv.Itoa(r.limit))
		v.Set("cursor", cursor)
	case kindRollup:
		v.Set("resolution", "auto")
		v.Set("agg", r.agg)
	}
	return "/api/v1/query?" + v.Encode()
}

// sampler draws a workload's requests. It is a pure function of its
// seed: the same seed yields the same sequence.
type sampler interface {
	next() *request
}

// popularSampler models dashboards: Zipf-skewed picks over a few dozen
// fixed specs, the current value per dataset x region and the last 24h
// page per dataset x region. Every spec fits the result cache.
//
// The mix is an assumption, not a measurement: no SpotLake access log is
// public, so the Zipf exponent (1.1), the 6 regions x 4 datasets and the
// 24h page are chosen, not derived. Keep them fixed until real access
// logs are in the repository to derive them from; see README.md.
type popularSampler struct {
	specs []request
	zipf  *rand.Zipf
}

// popularRegions is how many regions the dashboard specs cover.
const popularRegions = 6

func newPopularSampler(m *model, lastTick int, seed uint64, stream uint64) *popularSampler {
	// The ranking is fixed, not drawn: the most popular regions first and
	// the two kinds alternating, so every seed gives the hot end the same
	// mix of small latest answers and 300-point pages. Drawing it let one
	// seed's hottest spec be a page and another's a latest, and capacity
	// moved by half between seeds.
	var specs []request
	for _, r := range m.popular {
		for _, ds := range datasetShare {
			f := tsdb.KeyFilter{Dataset: ds.name, Region: r}
			specs = append(specs,
				request{kind: kindLatest, filter: f},
				request{kind: kindPage, filter: f, from: lastTick - 143, to: lastTick, limit: pageLimit})
		}
	}
	rng := rand.New(rand.NewPCG(seed, stream))
	return &popularSampler{specs: specs, zipf: rand.NewZipf(rng, 1.1, 1, uint64(len(specs)-1))}
}

func (p *popularSampler) next() *request {
	r := p.specs[p.zipf.Uint64()]
	return &r
}

// historySampler models researchers exporting history: every request
// picks a series and a window start uniformly over the whole archive,
// so no two requests share a result-cache entry.
type historySampler struct {
	m        *model
	lastTick int
	rng      *rand.Rand
}

// Window spans, in ticks, per history request kind, and the kinds'
// shares. Like the dashboard mix, these are assumptions, not measured.
const (
	windowMin, windowMax = 36, 288    // 6h to 2d of raw points
	walkMin, walkMax     = 288, 576   // 2d to 4d, two to three pages
	rollupMin, rollupMax = 288, 5760  // 2d to 40d: auto serves the 1h tier
	rollupMargin         = 9 * 24 * 6 // rollup windows end 9 days before the newest tick
	historyWindowShare   = 0.5        // the rest splits between walks and rollups
	historyWalkShare     = 0.2
)

var aggNames = [...]string{"min", "max", "mean", "last"}

func newHistorySampler(m *model, lastTick int, seed, stream uint64) *historySampler {
	return &historySampler{m: m, lastTick: lastTick, rng: rand.New(rand.NewPCG(seed, stream))}
}

func (h *historySampler) next() *request {
	s := h.m.series[h.rng.IntN(len(h.m.series))].key
	r := &request{filter: tsdb.KeyFilter{Dataset: s.Dataset, Type: s.Type, Region: s.Region, AZ: s.AZ}}
	span := func(lo, hi, end int) {
		n := lo + h.rng.IntN(hi-lo+1)
		n = min(n, end)
		r.from = h.rng.IntN(end - n + 1)
		r.to = r.from + n
	}
	switch u := h.rng.Float64(); {
	case u < historyWindowShare:
		r.kind = kindWindow
		span(windowMin, windowMax, h.lastTick)
	case u < historyWindowShare+historyWalkShare:
		r.kind, r.limit = kindWalk, walkLimit
		span(walkMin, walkMax, h.lastTick)
	default:
		r.kind, r.agg = kindRollup, aggNames[h.rng.IntN(len(aggNames))]
		span(rollupMin, rollupMax, h.lastTick-rollupMargin)
	}
	return r
}

// schedule returns the intended send offsets of an open loop at rate
// req/s over d: Poisson arrivals, as from independent users, drawn from
// the seed.
func schedule(rate float64, d time.Duration, seed, stream uint64) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, stream))
	var out []time.Duration
	for at := 0.0; ; {
		at += rng.ExpFloat64() / rate
		off := time.Duration(at * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/catalog"
	"repro/internal/tsdb"
)

// The generated archive. Every stored value is a pure function of
// (seed, series, tick), so the expected answer to any request is
// recomputed on demand instead of being held in memory: the heap the
// benchmark measures is the store's.

// tickEvery is the simulated collection interval, as in the collector.
const tickEvery = 10 * time.Minute

// epoch is tick 0. It sits on a UTC day boundary, so rollup buckets
// (1h, 1d) start on whole ticks.
var epoch = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)

func tickTime(t int) time.Time { return epoch.Add(time.Duration(t) * tickEvery) }

// datasetShare is the archive's dataset mix: per-AZ spot prices are the
// largest dataset, as in the real collector.
var datasetShare = []struct {
	name  string
	share float64
}{
	{tsdb.DatasetPrice, 0.5},
	{tsdb.DatasetPlacementScore, 0.25},
	{tsdb.DatasetInterruptFree, 0.125},
	{tsdb.DatasetSavings, 0.125},
}

type series struct {
	key  tsdb.SeriesKey
	salt uint64
	// od is the on-demand price that scales a price series.
	od float64
}

// model is one workload's archive: the series, in canonical key order,
// and the value function behind them.
type model struct {
	seed   uint64
	series []series
	index  map[tsdb.SeriesKey]int
	// popular lists the catalog's popularRegions most popular regions,
	// the ones dashboards poll.
	popular []string
}

// newModel draws n series from the standard catalog's pools with the
// dataset mix above. The series are the same for every seed, so every
// seed's requests match as many series and points; the seed draws the
// values, and with them which ticks store a point.
func newModel(cat *catalog.Catalog, seed uint64, n int) *model {
	rng := rand.New(rand.NewPCG(shapeSeed, 0x5eed))
	pools := cat.Pools()
	perm := rng.Perm(len(pools))
	m := &model{seed: seed, index: make(map[tsdb.SeriesKey]int, n)}
	regions := append([]catalog.Region(nil), cat.Regions()...)
	sort.Slice(regions, func(i, j int) bool { return regions[i].Popularity < regions[j].Popularity })
	for _, r := range regions[:min(popularRegions, len(regions))] {
		m.popular = append(m.popular, r.Code)
	}
	next := 0
	for di, ds := range datasetShare {
		want := int(math.Round(float64(n) * ds.share))
		if di == len(datasetShare)-1 {
			want = n - len(m.series)
		}
		for got := 0; got < want; {
			p := pools[perm[next%len(perm)]]
			next++
			k := tsdb.SeriesKey{Dataset: ds.name, Type: p.Type, Region: p.Region, AZ: p.AZ}
			if ds.name == tsdb.DatasetInterruptFree || ds.name == tsdb.DatasetSavings {
				k.AZ = "" // advisor data is region-granular
			}
			if _, dup := m.index[k]; dup {
				continue
			}
			od, _ := cat.OnDemandPrice(p.Type, p.Region)
			m.index[k] = -1
			m.series = append(m.series, series{key: k, od: od})
			got++
		}
	}
	sort.Slice(m.series, func(i, j int) bool { return m.series[i].key.String() < m.series[j].key.String() })
	for i := range m.series {
		m.series[i].salt = mix(seed ^ mix(uint64(i)+1))
		m.index[m.series[i].key] = i
	}
	return m
}

// shapeSeed draws the archive's series.
const shapeSeed = 1

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// value is series i's sample at tick t. Each dataset draws from its own
// alphabet, so consecutive samples repeat with the alphabet's odds and
// the store's change-only appends keep a dataset-specific share.
func (m *model) value(i, t int) float64 {
	s := &m.series[i]
	h := mix(s.salt ^ uint64(t)*0xd6e8feb86659fd93)
	switch s.key.Dataset {
	case tsdb.DatasetPlacementScore:
		return float64(1 + h%3)
	case tsdb.DatasetInterruptFree:
		return 1 + 0.5*float64(h%5)
	case tsdb.DatasetSavings:
		return float64(40 + h%51)
	default:
		return math.Round(s.od*(0.2+0.6*float64(h%1000)/1000)*1e4) / 1e4
	}
}

// stored reports whether tick t of series i lands in the store: the
// first sample does, later ones only when the value changed.
func (m *model) stored(i, t int) bool {
	return t == 0 || m.value(i, t) != m.value(i, t-1)
}

// entries fills buf with tick t's batch over every series, the unit the
// collector hands to AppendBatchIfChanged.
func (m *model) entries(buf []tsdb.Entry, t int) []tsdb.Entry {
	buf = buf[:0]
	at := tickTime(t)
	for i := range m.series {
		buf = append(buf, tsdb.Entry{Key: m.series[i].key, At: at, Value: m.value(i, t)})
	}
	return buf
}

// points returns series i's stored points on ticks [a, b].
func (m *model) points(i, a, b int) []tsdb.Point {
	var out []tsdb.Point
	for t := max(a, 0); t <= b; t++ {
		if m.stored(i, t) {
			out = append(out, tsdb.Point{At: tickTime(t), Value: m.value(i, t)})
		}
	}
	return out
}

// last returns series i's newest stored point at or before tick t.
func (m *model) last(i, t int) (tsdb.Point, bool) {
	for ; t >= 0; t-- {
		if m.stored(i, t) {
			return tsdb.Point{At: tickTime(t), Value: m.value(i, t)}, true
		}
	}
	return tsdb.Point{}, false
}

// rollup returns series i's materialized buckets of the given width
// (in ticks) whose start lies on ticks [a, b]: min, max, mean or last
// of the stored points in each non-empty bucket, the mean summed in
// time order as the store sums it.
func (m *model) rollup(i, a, b, width int, agg tsdb.Agg) []tsdb.Point {
	var out []tsdb.Point
	for s := (max(a, 0) + width - 1) / width * width; s <= b; s += width {
		var lo, hi, sum, last float64
		n := 0
		for t := s; t < s+width; t++ {
			if !m.stored(i, t) {
				continue
			}
			v := m.value(i, t)
			if n == 0 || v < lo {
				lo = v
			}
			if n == 0 || v > hi {
				hi = v
			}
			sum += v
			last = v
			n++
		}
		if n == 0 {
			continue
		}
		v := [...]float64{tsdb.AggMin: lo, tsdb.AggMax: hi, tsdb.AggMean: sum / float64(n), tsdb.AggLast: last}[agg]
		out = append(out, tsdb.Point{At: tickTime(s), Value: v})
	}
	return out
}

// matching returns the indexes of the series a filter selects, in
// canonical key order.
func (m *model) matching(f tsdb.KeyFilter) []int {
	var out []int
	for i := range m.series {
		k := m.series[i].key
		if (f.Dataset == "" || f.Dataset == k.Dataset) && (f.Type == "" || f.Type == k.Type) &&
			(f.Region == "" || f.Region == k.Region) && (f.AZ == "" || f.AZ == k.AZ) {
			out = append(out, i)
		}
	}
	return out
}

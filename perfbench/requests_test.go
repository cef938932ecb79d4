package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/tsdb"
)

var testCatalog = catalog.Standard()

func draw(s sampler, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = *s.next()
	}
	return out
}

func TestSamplersDeterministicPerSeed(t *testing.T) {
	for _, history := range []bool{false, true} {
		mk := func(seed uint64) sampler {
			m := newModel(testCatalog, seed, 400)
			if history {
				return newHistorySampler(m, 3000, seed, streamOpen)
			}
			return newPopularSampler(m, 3000, seed, streamOpen)
		}
		a, b := draw(mk(7), 500), draw(mk(7), 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("history=%v: same seed drew different sequences", history)
		}
		if c := draw(mk(8), 500); reflect.DeepEqual(a, c) {
			t.Errorf("history=%v: seeds 7 and 8 drew the same sequence", history)
		}
	}
	if a, b := schedule(500, time.Second, 3, streamSchedule), schedule(500, time.Second, 3, streamSchedule); !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different schedules")
	}
}

func TestScheduleRate(t *testing.T) {
	offs := schedule(1000, 10*time.Second, 1, streamSchedule)
	if n := len(offs); n < 9500 || n > 10500 {
		t.Errorf("1000 req/s over 10s scheduled %d arrivals", n)
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			t.Fatalf("offset %d goes backwards", i)
		}
	}
}

// The dashboard specs must fit the 128-entry result cache; every history
// request must be distinct, so none can be a cache hit.
func TestWorkingSetsAgainstResultCache(t *testing.T) {
	m := newModel(testCatalog, 1, 1024)
	p := newPopularSampler(m, 899, 1, streamOpen)
	if n := len(p.specs); n < 24 || n > 128 {
		t.Errorf("%d dashboard specs, want a few dozen within the result cache", n)
	}
	h := newHistorySampler(newModel(testCatalog, 1, 1200), 9000, 1, streamOpen)
	seen := map[string]bool{}
	for _, r := range draw(h, 5000) {
		if u := r.path(""); seen[u] {
			t.Fatalf("history request repeated: %s", u)
		} else {
			seen[u] = true
		}
	}
}

// The model's change-only semantics must match the store's.
func TestModelMatchesStore(t *testing.T) {
	m := newModel(testCatalog, 5, 64)
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var buf []tsdb.Entry
	total := 0
	for tick := 0; tick < 200; tick++ {
		buf = m.entries(buf, tick)
		n, err := db.AppendBatchIfChanged(buf)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if db.PointCount() != total {
		t.Fatalf("store holds %d points, acknowledged %d", db.PointCount(), total)
	}
	want := 0
	for i, s := range m.series {
		pts := m.points(i, 0, 199)
		want += len(pts)
		got, err := db.Query(s.key, tickTime(0), tickTime(199))
		if err != nil {
			t.Fatal(err)
		}
		if !equalPoints(got, pts) {
			t.Fatalf("series %v: store and model disagree", s.key)
		}
		if p, ok := m.last(i, 199); !ok || !p.At.Equal(pts[len(pts)-1].At) {
			t.Fatalf("series %v: last point disagrees", s.key)
		}
	}
	if want != total {
		t.Errorf("model stores %d points, store %d", want, total)
	}
}

// BENCHMARK.json states each workload's offered rate; it must be the
// rate the code runs.
func TestBenchmarkJSONStatesRates(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present")
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		j := doc.Workloads[i]
		if j.Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in code", i, j.Name, w.name)
		}
		if want := rateText(w); !strings.Contains(j.Why, want) {
			t.Errorf("%s: why %q does not state %q", w.name, j.Why, want)
		}
	}
}

// rateText is how BENCHMARK.json states w's fixed rate.
func rateText(w workload) string { return fmt.Sprintf("%g req/s", w.readRate) }

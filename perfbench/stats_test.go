package main

import (
	"math"
	"testing"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
		{100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if q := tailPercentile(c.n); q > 0 && c.n-rank(q, c.n) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, q, c.n-rank(q, c.n))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, reversed
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got := percentile(xs, 100); got != 1000 {
		t.Errorf("p100 = %v, want 1000", got)
	}
}

// A failed request enters as +Inf: past 1% failures p99 misses any limit.
func TestFailuresMissEveryLimit(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 1
	}
	for i := 0; i < 11; i++ {
		xs[i] = ms(0, false)
	}
	if got := percentile(xs, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 11 failures in 1000 = %v, want +Inf", got)
	}
	if got := percentile(xs, 50); got != 1 {
		t.Errorf("p50 = %v, want 1", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}

// A stall that slows a minority of the chunks does not move the median
// of the chunks' figures.
func TestChunkedPercentileIgnoresStalledChunks(t *testing.T) {
	xs := make([]float64, 0, 8*100)
	for c := range 8 {
		for i := range 100 {
			v := float64(1 + i%3) // each chunk's p50 is 2
			if c == 2 || c == 5 {
				v *= 10 // a stall slows these two chunks tenfold
			}
			xs = append(xs, v)
		}
	}
	if got := chunkedPercentile(xs, 50, 100); got != 2 {
		t.Errorf("median of chunk p50s = %v, want 2", got)
	}
	// Too few samples for two chunks: one chunk, its own p50.
	if got := chunkedPercentile([]float64{5, 1, 3}, 50, 100); got != 3 {
		t.Errorf("single chunk = %v, want 3", got)
	}
}

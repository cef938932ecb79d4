package main

import (
	"math"
	"sort"
)

// percentileLadder lists the percentiles the tail rule picks from.
var percentileLadder = []float64{50, 90, 95, 99, 99.9, 99.99}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// rank is the 1-based nearest-rank position of percentile q among n
// sorted samples.
func rank(q float64, n int) int {
	// The tolerance keeps float error in q/100*n from adding a rank.
	r := int(math.Ceil(q/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// supports reports whether n samples leave at least minBeyond samples
// beyond percentile q.
func supports(q float64, n int) bool {
	return n > 0 && n-rank(q, n) >= minBeyond
}

// tailPercentile is the highest percentile on the ladder with at least
// minBeyond samples beyond it, or 0 when not even the median has.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, q := range percentileLadder {
		if supports(q, n) {
			best = q
		}
	}
	return best
}

// percentile returns the nearest-rank percentile q of xs; xs is sorted
// in place. Failed operations enter as +Inf, so they miss any limit.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(q, len(xs))-1]
}

// median of xs (sorted in place); the mean of the middle pair for an
// even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// chunkSize is the fewest samples a chunk needs for its p99 to have
// minBeyond samples beyond it.
const chunkSize = 1000

// chunkedPercentile splits xs, in arrival order, into consecutive chunks
// of at least size samples, takes each chunk's percentile q, and returns
// the median of those figures: a stall confined to a few chunks moves a
// few chunks' figures, not the run's.
func chunkedPercentile(xs []float64, q float64, size int) float64 {
	return median(chunkFigures(xs, q, size))
}

// chunkFigures returns the percentile q of each of xs's consecutive
// chunks of at least size samples, in order. Fewer than size samples form
// a single chunk.
func chunkFigures(xs []float64, q float64, size int) []float64 {
	k := max(len(xs)/size, 1)
	per := make([]float64, k)
	for c := range k {
		lo, hi := c*len(xs)/k, (c+1)*len(xs)/k
		per[c] = percentile(append([]float64(nil), xs[lo:hi]...), q)
	}
	return per
}

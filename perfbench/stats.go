package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a reported tail percentile
// for it to be more than one or two outliers.
const minBeyond = 10

// rankAt is the 1-based nearest rank of quantile q among n sorted samples.
func rankAt(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	return min(max(r, 1), n)
}

// tailRank is the rank reported for the tail quantile q: q's own rank when
// at least minBeyond samples lie above it, otherwise the highest rank that
// still leaves minBeyond above, but never below the median's rank.
func tailRank(q float64, n int) int {
	return max(min(rankAt(q, n), n-minBeyond), rankAt(0.5, n))
}

// latencySummary is the median and the tail percentile of a set of
// latencies, with the quantile the tail actually reports.
type latencySummary struct {
	N     int
	P50   float64
	Tail  float64
	TailQ float64 // rank/N of the reported tail sample
}

// summarize returns the median and the tail for quantile q of xs. xs is
// not modified.
func summarize(xs []float64, q float64) latencySummary {
	n := len(xs)
	if n == 0 {
		return latencySummary{}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	r := tailRank(q, n)
	return latencySummary{N: n, P50: s[rankAt(0.5, n)-1], Tail: s[r-1], TailQ: float64(r) / float64(n)}
}

// median of xs (the lower middle for even lengths, matching rankAt).
func median(xs []float64) float64 {
	return summarize(xs, 0.5).P50
}

// pct is 100·part/whole, 0 when whole is 0.
func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

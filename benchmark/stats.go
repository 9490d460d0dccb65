package main

import (
	"fmt"
	"sort"
)

// summary reduces a timing distribution to what the benchmark reports:
// the median, and the highest percentile of tailLadder that still has at
// least ten samples beyond it, with the sample count. A tail percentile
// backed by fewer than ten samples is noise, so with too few samples
// TailPct stays 0 and only the median is reported.
type summary struct {
	N       int
	Median  float64
	TailPct float64 // 0 when no percentile has ten samples beyond it
	Tail    float64
}

// tailLadder lists the tail percentiles summarize may report, highest
// first, in tenths of a percent so ranks are exact integers.
var tailLadder = []int{999, 990, 900}

func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = median(sorted)
	for _, p := range tailLadder {
		if rank := nearestRank(len(sorted), p); len(sorted)-rank >= 10 {
			s.TailPct = float64(p) / 10
			s.Tail = sorted[rank-1]
			break
		}
	}
	return s
}

// String renders "median (pNN tail, n=N)".
func (s summary) String() string {
	if s.TailPct == 0 {
		return fmt.Sprintf("%.4g (n=%d)", s.Median, s.N)
	}
	return fmt.Sprintf("%.4g (p%g %.4g, n=%d)", s.Median, s.TailPct, s.Tail, s.N)
}

// median of an ascending slice; the mean of the middle pair when even.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// nearestRank is the 1-based rank of the permille-th per-mille of n
// samples: ceil(n × permille / 1000).
func nearestRank(n, permille int) int {
	return max((n*permille+999)/1000, 1)
}

// medianOf is median for an unsorted slice.
func medianOf(xs []float64) float64 { return summarize(xs).Median }

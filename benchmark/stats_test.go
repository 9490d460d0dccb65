package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: summarize must sort
	}
	return xs
}

func TestSummarize(t *testing.T) {
	for _, tc := range []struct {
		name    string
		xs      []float64
		median  float64
		tailPct float64
		tail    float64
	}{
		{"empty", nil, 0, 0, 0},
		{"one", []float64{7}, 7, 0, 0},
		{"even count averages the middle pair", []float64{4, 1, 3, 2}, 2.5, 0, 0},
		{"99 samples: p90 has only 9.9 beyond it", seq(99), 50, 0, 0},
		{"100 samples: p90 has 10 beyond it", seq(100), 50.5, 90, 90},
		{"999 samples: p99 has 9.99 beyond it", seq(999), 500, 90, 900},
		{"1000 samples: p99", seq(1000), 500.5, 99, 990},
		{"10000 samples: p99.9", seq(10000), 5000.5, 99.9, 9990},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := summarize(tc.xs)
			if s.N != len(tc.xs) || s.Median != tc.median || s.TailPct != tc.tailPct || s.Tail != tc.tail {
				t.Errorf("summarize = %+v, want n=%d median %g p%g=%g", s, len(tc.xs), tc.median, tc.tailPct, tc.tail)
			}
		})
	}
}

func TestSummaryString(t *testing.T) {
	if got := summarize([]float64{1, 2, 3}).String(); got != "2 (n=3)" {
		t.Errorf("got %q", got)
	}
	if got := summarize(seq(100)).String(); got != "50.5 (p90 90, n=100)" {
		t.Errorf("got %q", got)
	}
}

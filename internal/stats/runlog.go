package stats

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// RunRecord is one completed simulation run: its display name, how much
// simulated time it covered (in cycles), and how long it took for real.
type RunRecord struct {
	Name      string
	SimCycles int64
	Wall      time.Duration
}

// RunLog prints one progress line per completed run from a (possibly
// concurrent) experiment executor. It is safe for concurrent use; lines
// appear in completion order, which — unlike result order — may vary
// between runs.
type RunLog struct {
	mu sync.Mutex
	w  io.Writer
}

// NewRunLog returns a RunLog that prints each record to w.
func NewRunLog(w io.Writer) *RunLog { return &RunLog{w: w} }

// Record prints a single progress line: name, simulated cycles, and
// wall seconds, plus the resulting simulation rate.
func (l *RunLog) Record(r RunRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rate := ""
	if s := r.Wall.Seconds(); s > 0 {
		rate = fmt.Sprintf("  (%.1f Mcycles/s)", float64(r.SimCycles)/s/1e6)
	}
	fmt.Fprintf(l.w, "  run %-44s %12d cycles  %7.3fs%s\n", r.Name, r.SimCycles, r.Wall.Seconds(), rate)
}

// Package hostprof owns the sanctioned host clock: Nanotime, the
// monotonic reading sim.Engine.EnableProfiling batches against.
//
// This is the one sim-adjacent package allowed to read the host clock
// (prosper-lint's wallclock allowlist): simulation code measures in
// sim.Time cycles, and anything here is host-side observability that never
// feeds back into simulated behavior.
package hostprof

import "time"

// base anchors Nanotime. Package init order makes this the process-start
// epoch for all profiling deltas.
var base = time.Now()

// Nanotime returns monotonic host nanoseconds since process start. It is
// the clock to pass to sim.Engine.EnableProfiling: time.Since reads the
// monotonic reading embedded in base, so the result never jumps with
// wall-clock adjustments.
func Nanotime() int64 { return int64(time.Since(base)) }

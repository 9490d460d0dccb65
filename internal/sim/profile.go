package sim

// Host-side event-owner profiling. When enabled, the dispatch loop
// accumulates two per-component series:
//
//   - event counts: how many dispatched events each component owned.
//     Pure integer bookkeeping on the deterministic event stream, so the
//     counts are exactly reproducible (and exact-checked by the
//     quick-suite golden, like sim_cycles).
//
//   - host nanoseconds: how much wall time the dispatch loop spent in
//     each component's callbacks. Reading the host clock per event would
//     dominate the cost being measured, so the profiler samples it once
//     per batch of dispatched events and spreads the batch's elapsed
//     time over the components in proportion to their event counts in
//     that batch. Informational only: it varies run to run and never
//     participates in any determinism check.
//
// Profiling is disabled by default. The off path is a single nil check
// in Step — zero allocations, and (when, seq) dispatch order is
// identical either way (pinned by TestProfilingPreservesOrder and the
// engine allocation tests).
//
// The clock is injected (see EnableProfiling) so this package stays free
// of host time sources; internal/hostprof owns the sanctioned
// time.Now-based clock (prosper-lint's wallclock allowlist).

// profileBatchEvents is how many dispatched events share one host clock
// reading. 1024 keeps clock overhead under ~0.1% of dispatch cost while
// still attributing time at sub-millisecond granularity on typical runs.
const profileBatchEvents = 1024

// Profile accumulates per-component dispatch accounting for one Engine.
// It is owned by exactly one engine and is not safe for concurrent use
// (the engine is single-threaded; read results after the run or between
// Step calls).
type Profile struct {
	clock  func() int64 // monotonic host nanoseconds; nil = counts only
	counts [NumComponents]uint64
	nanos  [NumComponents]int64
	batch  [NumComponents]uint32
	batchN uint32
	lastNS int64
}

// ProfileSnapshot is a copy of a Profile's accumulated series. Counts is
// deterministic for a given binary, suite, and seed; Nanos is
// host-dependent and informational.
type ProfileSnapshot struct {
	Counts [NumComponents]uint64
	Nanos  [NumComponents]int64
}

// EnableProfiling attaches a fresh Profile to the engine and returns it.
// clock must return monotonic host nanoseconds (use hostprof.Nanotime);
// a nil clock records event counts only. Enable before the first Step so
// the per-component counts sum to Fired().
func (e *Engine) EnableProfiling(clock func() int64) *Profile {
	p := &Profile{clock: clock}
	if clock != nil {
		p.lastNS = clock()
	}
	e.prof = p
	return p
}

// Profiling returns the engine's attached Profile, or nil when disabled.
func (e *Engine) Profiling() *Profile { return e.prof }

// record attributes one dispatched event to its owning component.
func (p *Profile) record(c Component) {
	p.counts[c]++
	p.batch[c]++
	p.batchN++
	if p.batchN >= profileBatchEvents {
		p.flushBatch()
	}
}

// flushBatch reads the host clock once and spreads the elapsed time over
// the batch's components in proportion to their event counts. Integer
// division truncates; the remainder (at most batchN-1 nanoseconds per
// batch) is dropped rather than re-attributed, so Nanos slightly
// undercounts total wall time — fine for an informational share.
func (p *Profile) flushBatch() {
	if p.batchN == 0 {
		return
	}
	if p.clock != nil {
		now := p.clock()
		dt := now - p.lastNS
		p.lastNS = now
		if dt > 0 {
			for c := range p.batch {
				if n := p.batch[c]; n > 0 {
					p.nanos[c] += dt * int64(n) / int64(p.batchN)
				}
			}
		}
	}
	p.batch = [NumComponents]uint32{}
	p.batchN = 0
}

// Snapshot flushes the open batch and returns a copy of the accumulated
// per-component series.
func (p *Profile) Snapshot() ProfileSnapshot {
	p.flushBatch()
	return ProfileSnapshot{Counts: p.counts, Nanos: p.nanos}
}

// TotalEvents returns the sum of per-component event counts — by
// construction equal to the number of events dispatched while profiling
// was enabled (Engine.Fired when enabled from birth).
func (s ProfileSnapshot) TotalEvents() uint64 {
	var total uint64
	for _, n := range s.Counts {
		total += n
	}
	return total
}

// TotalNanos returns the sum of attributed host nanoseconds.
func (s ProfileSnapshot) TotalNanos() int64 {
	var total int64
	for _, n := range s.Nanos {
		total += n
	}
	return total
}

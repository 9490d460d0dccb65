// Package journey records sampled end-to-end "journeys" of individual
// memory operations through the simulated stack: core issue → address
// translation (TLB / page walk) → store-buffer admission → cache lookup
// → MSHR wait → device queue → bank service → NVM persistence-domain
// drain. Aggregate histograms (PR 4) say a latency tail exists; a
// journey says why one specific access sat in it.
//
// Sampling is deterministic: each per-run Recorder counts every access
// the cores issue (the access sequence number) and samples those whose
// seeded hash of that sequence number selects them — never wall clock,
// never map order — so the set of sampled accesses, and every recorded
// cycle, is byte-identical for any host parallelism.
//
// A sampled access accumulates stage spans (enter/exit cycle plus a
// cause tag) as it traverses the components; the identity rides the
// sim.Done completion token (a packed uint32 slot), so the plumbing
// costs one predictable branch and zero allocations when tracing is off.
// When the journey finishes, the recorder computes a critical-path
// attribution: the interval [Start, End) is partitioned among stages by
// an innermost-span-wins sweep, so the per-stage cycle vector sums
// EXACTLY to the measured end-to-end latency — the same "every cycle is
// charged to exactly one cause" invariant persist.Attrib pins for
// checkpoint pauses (DESIGN.md §15).
package journey

import (
	"slices"

	"prosper/internal/sim"
)

// Stage identifies one architectural station an access can spend cycles
// in. Stage numbering is depth-ordered: deeper stages (closer to the
// memory device) have larger values, which is what breaks ties in the
// attribution sweep when two spans begin on the same cycle.
type Stage uint8

const (
	// StageIssue is the core-side residue: issue bookkeeping, segment
	// scheduling gaps, and any cycle no deeper span claims.
	StageIssue Stage = iota
	// StageTLB covers address translation beyond a TLB hit: hardware
	// page walks, dirty-bit-setting walks, and page-fault handling.
	StageTLB
	// StageStoreBuf is time a store waits for a store-buffer credit.
	StageStoreBuf
	// StageHook is a persistence store-hook stall (tracker update, SSP
	// shadow remap) charged to the store before it may issue.
	StageHook
	// StageL1, StageL2, StageL3 are the cache levels: hit latency, or
	// the level's residual share of a miss (fetch issue + fill).
	StageL1
	StageL2
	StageL3
	// StageMSHR is time blocked on MSHR exhaustion before a level could
	// even start the miss.
	StageMSHR
	// StageDevQueue is device-side queueing: admission-buffer wait plus
	// bank-conflict and channel-bus wait before service begins.
	StageDevQueue
	// StageDevService is bank service time at the device (DRAM, or NVM
	// reads, which do not cross the persistence domain).
	StageDevService
	// StageDrain is NVM write service: the cycles between the write
	// being admitted to the device and the persistence domain marking
	// its line durable.
	StageDrain

	NumStages int = iota
)

var stageNames = [NumStages]string{
	"issue", "tlb", "store_buffer", "store_hook",
	"l1", "l2", "l3", "mshr", "dev_queue", "dev_service", "nvm_drain",
}

// String returns the stable journal name of the stage.
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// StageFromName returns the stage with the given journal name.
func StageFromName(name string) (Stage, bool) {
	for i, n := range stageNames {
		if n == name {
			return Stage(i), true
		}
	}
	return 0, false
}

// Cause tags why a span happened (or why it was slow).
type Cause uint8

const (
	CauseNone Cause = iota
	CauseHit
	CauseMiss
	CauseCoalesced // rode an in-flight fetch of the same line
	CauseMSHRFull
	CauseBufferStall // device admission buffer full
	CauseBankConflict
	CauseBusWait
	CauseWalk     // TLB-miss page walk
	CauseDirtySet // dirty-bit-setting walk on first store to a clean page
	CauseFault    // page fault through the kernel handler
	CauseStoreHook
	CauseSBFull // store buffer full
	CauseDRAM
	CauseNVM
	CauseNVMDrain

	NumCauses int = iota
)

var causeNames = [NumCauses]string{
	"", "hit", "miss", "coalesced", "mshr_full", "buffer_stall",
	"bank_conflict", "bus_wait", "walk", "dirty_set", "fault",
	"store_hook", "sb_full", "dram", "nvm", "nvm_drain",
}

// String returns the stable journal name of the cause ("" for none).
func (c Cause) String() string {
	if int(c) < NumCauses {
		return causeNames[c]
	}
	return "unknown"
}

// CauseFromName returns the cause with the given journal name.
func CauseFromName(name string) (Cause, bool) {
	for i, n := range causeNames {
		if n == name {
			return Cause(i), true
		}
	}
	return 0, false
}

// Span is one recorded stage interval of a journey, in engine cycles.
type Span struct {
	Stage Stage
	Cause Cause
	Enter sim.Time
	Exit  sim.Time
}

// Journey is one sampled access's full record. Spans appear in
// recording order (the deterministic order components observed the
// access); Vec is the critical-path attribution computed at finish.
type Journey struct {
	JID   uint32
	Seq   uint64 // access sequence number within the run (sampling key)
	Write bool
	VAddr uint64
	Size  int

	Start sim.Time
	End   sim.Time
	Spans []Span

	// Vec charges every cycle of [Start, End) to exactly one stage:
	// sum(Vec) == End-Start, always (see attribute).
	Vec [NumStages]sim.Time

	pending  int // line segments still outstanding
	finished bool
}

// Latency returns the measured end-to-end cycles of the journey.
func (j *Journey) Latency() sim.Time { return j.End - j.Start }

// Finished reports whether every segment of the access completed before
// the run ended.
func (j *Journey) Finished() bool { return j.finished }

// DominantStage returns the stage charged the most cycles (ties go to
// the shallower stage, matching enumeration order).
func (j *Journey) DominantStage() Stage {
	best := Stage(0)
	for s := 1; s < NumStages; s++ {
		if j.Vec[s] > j.Vec[best] {
			best = Stage(s)
		}
	}
	return best
}

// attribute partitions [Start, End) among the recorded spans with an
// innermost-span-wins sweep: for every elementary interval between span
// boundaries, the covering span that entered last claims it (ties break
// to the deeper stage, then to the later-recorded span); intervals no
// span covers are charged to StageIssue. The partition is exhaustive
// and disjoint by construction, so sum(Vec) == End-Start exactly. The
// sweep's boundary list is built in cuts, whose storage the caller
// reuses across journeys; attribute returns it, possibly grown.
func (j *Journey) attribute(cuts []sim.Time) []sim.Time {
	for i := range j.Vec {
		j.Vec[i] = 0
	}
	if j.End <= j.Start {
		return cuts
	}
	cuts = append(cuts[:0], j.Start, j.End)
	for _, sp := range j.Spans {
		if sp.Enter > j.Start && sp.Enter < j.End {
			cuts = append(cuts, sp.Enter)
		}
		if sp.Exit > j.Start && sp.Exit < j.End {
			cuts = append(cuts, sp.Exit)
		}
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	for ci := 0; ci+1 < len(cuts); ci++ {
		a, b := cuts[ci], cuts[ci+1]
		stage := StageIssue
		var bestEnter sim.Time = -1
		var bestStage Stage
		found := false
		for si := range j.Spans {
			sp := &j.Spans[si]
			if sp.Enter > a || sp.Exit < b {
				continue
			}
			if !found || sp.Enter > bestEnter ||
				(sp.Enter == bestEnter && sp.Stage >= bestStage) {
				found = true
				bestEnter = sp.Enter
				bestStage = sp.Stage
			}
		}
		if found {
			stage = bestStage
		}
		j.Vec[stage] += b - a
	}
	return cuts
}

// Recorder samples and records one run's journeys. It is single-run
// local, touched only from that run's single-threaded event engine —
// exactly the telemetry.Tracer contract — which is what keeps the
// journal byte-identical at any worker count. All methods are nil-safe:
// a nil *Recorder is "tracing off" and costs one branch per call site.
//
// Storage is allocated per block, never per sampled access. Journey
// records live by value in blocks the recorder owns, so a *Journey it
// hands out stays valid for the recorder's life. An open journey
// collects its spans in a scratch buffer from the recorder's free list;
// when it finishes, the spans are copied into a span block as a
// capacity-clipped window and the buffer goes back on the list. Blocks
// start small and double to a cap, as the tracer's do (DESIGN.md §15).
type Recorder struct {
	name string
	rate uint64 // sample 1-in-rate accesses; 0 disables
	seed uint64

	seq      uint64     // accesses observed (loads + stores across all cores)
	journeys []*Journey // every journey started, in JID order
	open     int        // journeys started but not yet finished

	block []Journey  // the journey block being filled
	spans []Span     // the span block being filled
	free  [][]Span   // scratch span buffers no open journey holds
	cuts  []sim.Time // the attribution sweep's boundary list
}

// Storage block sizes, in records. A recorder holding a handful of
// journeys stays near a kilobyte; a long run allocates once per few
// hundred journeys.
const (
	minJourneyBlock = 4
	maxJourneyBlock = 512
	minSpanBlock    = 16
	maxSpanBlock    = 4096
	scratchSpans    = 16 // initial capacity of an open journey's buffer
)

// reserve returns blk if it has room for n more records, or else a new
// empty block: double the old capacity, within [lo, hi], and at least n.
// The old block is left to the records already pointing into it.
func reserve[T any](blk []T, n, lo, hi int) []T {
	if cap(blk)-len(blk) >= n {
		return blk
	}
	return make([]T, 0, max(min(max(2*cap(blk), lo), hi), n))
}

// alloc appends a zeroed journey slot to the JID index and returns it.
func (r *Recorder) alloc() *Journey {
	r.block = reserve(r.block, 1, minJourneyBlock, maxJourneyBlock)
	r.block = r.block[:len(r.block)+1]
	j := &r.block[len(r.block)-1]
	r.journeys = append(r.journeys, j)
	return j
}

// scratch returns an empty span buffer for an open journey.
func (r *Recorder) scratch() []Span {
	n := len(r.free)
	if n == 0 {
		return make([]Span, 0, scratchSpans)
	}
	buf := r.free[n-1]
	r.free = r.free[:n-1]
	return buf
}

// keep copies a finished journey's spans from their scratch buffer into
// the span block and recycles the buffer. The returned window is
// capacity-clipped, so nothing appended to it can reach a neighbour's.
func (r *Recorder) keep(buf []Span) []Span {
	r.free = append(r.free, buf[:0])
	if len(buf) == 0 {
		return nil
	}
	r.spans = reserve(r.spans, len(buf), minSpanBlock, maxSpanBlock)
	n := len(r.spans)
	r.spans = append(r.spans, buf...)
	return r.spans[n:len(r.spans):len(r.spans)]
}

// NewRecorder builds a standalone recorder (tests and single runs). A
// rate of 0 returns nil: tracing disabled.
func NewRecorder(name string, rate, seed uint64) *Recorder {
	if rate == 0 {
		return nil
	}
	return &Recorder{name: name, rate: rate, seed: seed}
}

// Name returns the run label the recorder was created under.
func (r *Recorder) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// Enabled reports whether the recorder actually records (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

// splitmix64 is the SplitMix64 finalizer: a seeded, stateless hash of
// the access sequence number. Sampling with it spreads samples evenly
// without any periodic-aliasing risk a plain modulo would have.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Start observes one core-issued access at cycle now and returns its
// journey ID: 0 for the (vastly common) unsampled case, or a fresh
// nonzero ID whose journey will collect segs segment completions.
func (r *Recorder) Start(now sim.Time, write bool, vaddr uint64, size, segs int) uint32 {
	if r == nil {
		return 0
	}
	r.seq++
	if splitmix64(r.seq^r.seed)%r.rate != 0 {
		return 0
	}
	j := r.alloc()
	*j = Journey{
		JID:     uint32(len(r.journeys)),
		Seq:     r.seq,
		Write:   write,
		VAddr:   vaddr,
		Size:    size,
		Start:   now,
		End:     now,
		Spans:   r.scratch(),
		pending: segs,
	}
	r.open++
	return j.JID
}

// get returns the journey for jid, or nil when jid is 0, unknown, or
// already finished (late spans from decoupled completions are dropped).
func (r *Recorder) get(jid uint32) *Journey {
	if r == nil || jid == 0 || int(jid) > len(r.journeys) {
		return nil
	}
	j := r.journeys[jid-1]
	if j.finished {
		return nil
	}
	return j
}

// Span records one stage interval for the journey. Components may
// record spans whose exit lies in the (deterministic) future — a hit
// completing after its level's latency — and overlapping spans are
// expected: the attribution sweep resolves them at finish.
func (r *Recorder) Span(jid uint32, stage Stage, cause Cause, enter, exit sim.Time) {
	j := r.get(jid)
	if j == nil {
		return
	}
	if exit < enter {
		exit = enter
	}
	j.Spans = append(j.Spans, Span{Stage: stage, Cause: cause, Enter: enter, Exit: exit})
}

// SegDone retires one line segment of the journey at cycle now; the
// last segment finishes the journey, computes its attribution and moves
// its spans into the recorder's span block.
func (r *Recorder) SegDone(jid uint32, now sim.Time) {
	j := r.get(jid)
	if j == nil {
		return
	}
	j.pending--
	if j.pending > 0 {
		return
	}
	j.End = now
	for i := range j.Spans {
		sp := &j.Spans[i]
		if sp.Exit > j.End {
			j.End = sp.Exit
		}
		if sp.Enter < j.Start {
			// Defensive clamp: no component should record before issue.
			sp.Enter = j.Start
		}
	}
	j.finished = true
	r.open--
	r.cuts = j.attribute(r.cuts)
	j.Spans = r.keep(j.Spans)
}

// Journeys returns every journey started so far, in JID order,
// including unfinished ones (callers filter with Finished). An
// unfinished journey's Spans is its scratch buffer, which the recorder
// keeps appending to until the journey finishes.
func (r *Recorder) Journeys() []*Journey {
	if r == nil {
		return nil
	}
	return r.journeys
}

// Counts returns (accesses observed, journeys sampled, finished).
func (r *Recorder) Counts() (accesses, sampled, finished uint64) {
	if r == nil {
		return 0, 0, 0
	}
	return r.seq, uint64(len(r.journeys)), uint64(len(r.journeys) - r.open)
}

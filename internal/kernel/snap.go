package kernel

import (
	"errors"
	"fmt"

	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/snapbuf"
)

// This file implements kernel-level snapshot save/load. Snapshots are
// taken only inside a checkpoint commit hook (Process.CommitHook), where
// every thread of the checkpointing process is parked at an op boundary,
// cores are drained, and the only in-flight simulation state is the
// background apply traffic whose continuations carry resume keys. Save
// is a pure read; the run continues unperturbed afterwards.

// SaveSnap encodes the full kernel state: scheduler, trackers, and every
// process with its address space, mechanisms, and threads. claims
// accumulates the (when, seq) identities of the pending engine events
// the kernel owns (quantum and checkpoint tickers).
func (k *Kernel) SaveSnap(w *snapbuf.Writer, claims *sim.EventClaims) error {
	// The observers hold host state no snapshot can carry: open spans,
	// journeys keyed by live record identity, wall-clock accumulators.
	if k.Trace.Enabled() || k.Cfg.Journey != nil || k.Eng.Profiling() != nil {
		return errors.New("kernel: telemetry tracing, journey recording and event profiling cannot cross a snapshot")
	}
	if k.hookProc == nil {
		return errors.New("kernel: snapshots are taken inside checkpoint commit hooks only")
	}
	if k.hookSync {
		return errors.New("kernel: cannot snapshot a synchronous checkpoint (its completion closure is host state)")
	}
	w.Int(k.hookProc.PID)
	w.Int(k.nextPID)
	k.Counters.SaveSnap(w)

	w.U64(uint64(len(k.cores)))
	for _, cs := range k.cores {
		if cs.cur != nil {
			return fmt.Errorf("kernel: core %d is running thread %d.%d at snapshot point",
				cs.id, cs.cur.Proc.PID, cs.cur.TID)
		}
		w.Bool(cs.idle)
		w.Int(cs.homed)
		w.U64(uint64(len(cs.runq)))
		for _, t := range cs.runq {
			w.Int(t.Proc.PID)
			w.Int(t.TID)
		}
		saveTicker(w, claims, k.Eng, cs.timer)
	}

	for _, tr := range k.Trackers {
		if err := tr.SaveSnap(w); err != nil {
			return err
		}
	}

	w.U64(uint64(len(k.procs)))
	for _, p := range k.procs {
		if err := k.saveProc(w, claims, p); err != nil {
			return fmt.Errorf("process %s: %w", p.Name, err)
		}
	}
	return nil
}

func (k *Kernel) saveProc(w *snapbuf.Writer, claims *sim.EventClaims, p *Process) error {
	if p.checkpointing {
		return errors.New("kernel: process is mid-checkpoint at snapshot point")
	}
	w.String(p.Name)
	w.U64(uint64(p.headerAddr))
	w.U64(p.ckptSeq)
	w.U64(p.CheckpointCount)
	w.U64(p.CheckpointBytes)
	w.U64(p.StackCkptBytes)
	w.U64(uint64(len(p.EpochPauses)))
	for _, ep := range p.EpochPauses {
		w.U64(ep.Seq)
		w.I64(int64(ep.Pause))
		for _, v := range ep.Causes {
			w.U64(v)
		}
	}
	p.Counters.SaveSnap(w)
	saveTicker(w, claims, k.Eng, p.ckptTicker)
	p.AS.SaveSnap(w)
	w.Bool(p.heapMech != nil)
	if p.heapMech != nil {
		if err := saveMech(w, claims, p.heapMech); err != nil {
			return fmt.Errorf("heap mechanism: %w", err)
		}
	}
	w.U64(uint64(len(p.Threads)))
	for _, t := range p.Threads {
		if t.pauseWaiter != nil {
			return fmt.Errorf("kernel: thread %d has a pause waiter at snapshot point", t.TID)
		}
		w.U8(uint8(t.state))
		w.Bool(t.needYield)
		w.Bool(t.pauseRequested)
		w.U64(t.ckptEpoch)
		w.U64(t.UserOps)
		w.U64(t.UserCycles)
		w.U64(t.storeSeq)
		w.U64(t.sp)
		w.U64(t.opsConsumed)
		if err := saveMech(w, claims, t.mech); err != nil {
			return fmt.Errorf("thread %d stack mechanism: %w", t.TID, err)
		}
	}
	return nil
}

func saveMech(w *snapbuf.Writer, claims *sim.EventClaims, m persist.Mechanism) error {
	s, ok := m.(persist.Snapshotter)
	if !ok {
		return fmt.Errorf("kernel: mechanism %s does not support snapshots", m.Name())
	}
	return s.SaveSnap(w, claims)
}

// LoadSnap restores kernel state saved by SaveSnap into a freshly booted
// kernel of the identical configuration (same spec, same spawn sequence;
// the engine queue must already be reset and the clock restored). It
// registers every mechanism's resume tokens into reg — call it before
// Machine.LoadSnap so parked tokens in device queues can re-bind — via
// RegisterResumeTokens, which the snapshot orchestrator invokes first.
func (k *Kernel) LoadSnap(r *snapbuf.Reader, reg map[uint64]sim.Done) error {
	hookPID := r.Int()
	k.nextPID = r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if err := k.Counters.LoadSnap(r); err != nil {
		return err
	}

	nc := r.Count(3)
	if r.Err() != nil {
		return r.Err()
	}
	if nc != len(k.cores) {
		return fmt.Errorf("kernel: %d cores in snapshot, %d booted", nc, len(k.cores))
	}
	// Run-queue entries reference threads, which are restored later;
	// collect (pid, tid) pairs and resolve after the process section.
	type runqRef struct{ pid, tid int }
	runqs := make([][]runqRef, len(k.cores))
	for ci, cs := range k.cores {
		cs.cur = nil
		cs.idle = r.Bool()
		cs.homed = r.Int()
		nq := r.Count(2)
		if r.Err() != nil {
			return r.Err()
		}
		cs.runq = cs.runq[:0]
		for i := 0; i < nq; i++ {
			runqs[ci] = append(runqs[ci], runqRef{pid: r.Int(), tid: r.Int()})
		}
		if err := loadTicker(r, k.Eng, cs.timer, fmt.Sprintf("core %d quantum", cs.id)); err != nil {
			return err
		}
	}

	for _, tr := range k.Trackers {
		if err := tr.LoadSnap(r); err != nil {
			return err
		}
	}

	np := r.Count(8)
	if r.Err() != nil {
		return r.Err()
	}
	if np != len(k.procs) {
		return fmt.Errorf("kernel: %d processes in snapshot, %d booted", np, len(k.procs))
	}
	for _, p := range k.procs {
		if err := k.loadProc(r, p); err != nil {
			return fmt.Errorf("process %s: %w", p.Name, err)
		}
	}

	for ci, refs := range runqs {
		for _, ref := range refs {
			t := k.findThread(ref.pid, ref.tid)
			if t == nil {
				return fmt.Errorf("kernel: run queue references unknown thread %d.%d", ref.pid, ref.tid)
			}
			k.cores[ci].runq = append(k.cores[ci].runq, t)
		}
	}

	p := k.findProc(hookPID)
	if p == nil {
		return fmt.Errorf("kernel: snapshot commit hook references unknown process %d", hookPID)
	}
	// Re-enter the commit hook the snapshot was taken in: the resumed
	// kernel is paused between commit and epilogue, exactly like the
	// original; FinishResume runs the epilogue.
	k.hookProc, k.hookSync = p, false
	return nil
}

func (k *Kernel) loadProc(r *snapbuf.Reader, p *Process) error {
	name := r.String()
	headerAddr := r.U64()
	if r.Err() != nil {
		return r.Err()
	}
	if name != p.Name || headerAddr != p.headerAddr {
		return fmt.Errorf("kernel: process mismatch: snapshot %s@%#x, boot %s@%#x",
			name, headerAddr, p.Name, p.headerAddr)
	}
	p.checkpointing = false
	p.ckptSeq = r.U64()
	p.CheckpointCount = r.U64()
	p.CheckpointBytes = r.U64()
	p.StackCkptBytes = r.U64()
	ne := r.Count(16 + 8*int(persist.NumCauses))
	p.EpochPauses = p.EpochPauses[:0]
	for i := 0; i < ne; i++ {
		var ep EpochPause
		ep.Seq = r.U64()
		ep.Pause = sim.Time(r.I64())
		for c := range ep.Causes {
			ep.Causes[c] = r.U64()
		}
		p.EpochPauses = append(p.EpochPauses, ep)
	}
	if r.Err() != nil {
		return r.Err()
	}
	if err := p.Counters.LoadSnap(r); err != nil {
		return err
	}
	if err := loadTicker(r, p.kern.Eng, p.ckptTicker, "checkpoint"); err != nil {
		return err
	}
	if err := p.AS.LoadSnap(r); err != nil {
		return err
	}
	hasHeap := r.Bool()
	if r.Err() != nil {
		return r.Err()
	}
	if hasHeap != (p.heapMech != nil) {
		return fmt.Errorf("kernel: heap mechanism presence mismatch (snapshot %v, boot %v)", hasHeap, p.heapMech != nil)
	}
	if hasHeap {
		if err := loadMech(r, p.heapMech); err != nil {
			return fmt.Errorf("heap mechanism: %w", err)
		}
	}
	nt := r.Count(8)
	if r.Err() != nil {
		return r.Err()
	}
	if nt != len(p.Threads) {
		return fmt.Errorf("kernel: %d threads in snapshot, %d booted", nt, len(p.Threads))
	}
	for _, t := range p.Threads {
		st := r.U8()
		t.needYield = r.Bool()
		t.pauseRequested = r.Bool()
		t.ckptEpoch = r.U64()
		t.UserOps = r.U64()
		t.UserCycles = r.U64()
		t.storeSeq = r.U64()
		t.sp = r.U64()
		ops := r.U64()
		if r.Err() != nil {
			return r.Err()
		}
		if st > uint8(threadDone) {
			return fmt.Errorf("kernel: thread %d has invalid state %d", t.TID, st)
		}
		t.state = threadState(st)
		t.pauseWaiter = nil
		// Replay the deterministic program to the saved position. The
		// fresh program was Started at boot; every consumed op is
		// discarded again here, which reproduces generator state exactly.
		for ; t.opsConsumed < ops; t.opsConsumed++ {
			t.Prog.Next()
		}
		if err := loadMech(r, t.mech); err != nil {
			return fmt.Errorf("thread %d stack mechanism: %w", t.TID, err)
		}
	}
	return nil
}

func loadMech(r *snapbuf.Reader, m persist.Mechanism) error {
	s, ok := m.(persist.Snapshotter)
	if !ok {
		return fmt.Errorf("kernel: mechanism %s does not support snapshots", m.Name())
	}
	return s.LoadSnap(r)
}

// RegisterResumeTokens collects every mechanism's keyed continuation
// prototypes. The snapshot orchestrator calls it before any state is
// decoded so parked tokens anywhere in the machine can re-bind.
func (k *Kernel) RegisterResumeTokens(reg map[uint64]sim.Done) {
	for _, p := range k.procs {
		if s, ok := p.heapMech.(persist.Snapshotter); ok && p.heapMech != nil {
			s.ResumeTokens(reg)
		}
		for _, t := range p.Threads {
			if s, ok := t.mech.(persist.Snapshotter); ok {
				s.ResumeTokens(reg)
			}
		}
	}
}

// FinishResume runs the interrupted commit's epilogue (phase 5: begin
// the new interval, resume the threads) on a kernel restored by
// LoadSnap. Call exactly once, after all state is live and before the
// engine runs again.
func (k *Kernel) FinishResume() error {
	p := k.hookProc
	if p == nil {
		return errors.New("kernel: no resumed commit hook to finish")
	}
	k.hookProc, k.hookSync = nil, false
	k.commitEpilogue(p)
	return nil
}

func (k *Kernel) findProc(pid int) *Process {
	for _, p := range k.procs {
		if p.PID == pid {
			return p
		}
	}
	return nil
}

func (k *Kernel) findThread(pid, tid int) *Thread {
	p := k.findProc(pid)
	if p == nil {
		return nil
	}
	for _, t := range p.Threads {
		if t.TID == tid {
			return t
		}
	}
	return nil
}

// saveTicker encodes a ticker's pending tick event and claims it. A
// stopped ticker's stale event may still be queued (Stop does not remove
// it); it is claimed and re-injected too, so the event-count stream of
// the resumed run matches the original exactly.
func saveTicker(w *snapbuf.Writer, claims *sim.EventClaims, eng *sim.Engine, t *sim.Ticker) {
	if t == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	stopped := t.Stopped()
	when, seq := t.NextFire()
	pending := !stopped || when > eng.Now()
	w.Bool(stopped)
	w.Bool(pending)
	if pending {
		w.I64(int64(when))
		w.U64(seq)
		claims.Claim(when, seq)
	}
}

func loadTicker(r *snapbuf.Reader, eng *sim.Engine, t *sim.Ticker, what string) error {
	has := r.Bool()
	if r.Err() != nil {
		return r.Err()
	}
	if has != (t != nil) {
		return fmt.Errorf("kernel: %s ticker presence mismatch (snapshot %v, boot %v)", what, has, t != nil)
	}
	if !has {
		return nil
	}
	stopped := r.Bool()
	pending := r.Bool()
	if pending {
		when := sim.Time(r.I64())
		seq := r.U64()
		if r.Err() != nil {
			return r.Err()
		}
		if when < eng.Now() {
			return fmt.Errorf("kernel: %s ticker event at %d is in the past (now %d)", what, when, eng.Now())
		}
		t.Rearm(when, seq)
	}
	if stopped {
		t.Stop()
	}
	return r.Err()
}

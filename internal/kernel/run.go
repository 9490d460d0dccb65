package kernel

import (
	"encoding/binary"

	"prosper/internal/sim"
	"prosper/internal/workload"
)

// step executes one operation of the thread on its core, then reschedules
// itself. Preemption and checkpoint pauses happen at op boundaries only,
// which keeps the simulation deterministic and matches the quantum
// granularity of the experiments.
func (k *Kernel) step(t *Thread, cs *coreState) {
	if t.state != threadRunning || cs.cur != t {
		return
	}
	if t.needYield {
		k.yield(cs, t, func() { k.parkOrRequeue(t) })
		return
	}
	op := t.Prog.Next()
	t.opStart = k.Eng.Now()
	switch op.Kind {
	case workload.End:
		t.state = threadDone
		cs.cur = nil
		k.Counters.Inc("kernel.threads_done")
		k.scheduleNext(cs)
	case workload.Compute:
		t.UserOps += uint64(op.Cycles) // a compute block is ~1 op/cycle
		t.UserCycles += uint64(op.Cycles)
		k.Eng.Schedule(sim.CompKernel, op.Cycles, t.stepFn)
	case workload.Load:
		if op.SP != 0 {
			t.sp = op.SP
		}
		cs.core.Read(op.Addr, int(op.Size), t.opDoneFn)
	case workload.Store:
		if op.SP != 0 {
			t.sp = op.SP
		}
		core := cs.core
		fill := op.Addr < core.TimingOnlyLo || op.Addr+uint64(op.Size) > core.TimingOnlyHi
		core.Write(op.Addr, t.storeData(op, fill), t.opDoneFn)
	default:
		panic("kernel: unknown op kind")
	}
}

// bindOps materializes the thread's step/completion callbacks once, at
// thread birth, so the per-op hot loop never allocates a closure. Every
// Thread constructor (spawn and recovery) must call it.
func (t *Thread) bindOps(k *Kernel) {
	t.stepFn = func() { k.step(t, t.cs) }
	t.opDoneFn = t.finishOp
}

// finishOp retires the load/store in flight and schedules the next step.
// It runs through the thread's once-bound opDoneFn, so the per-op
// completion cycle allocates nothing.
func (t *Thread) finishOp() {
	k := t.Proc.kern
	t.UserOps++
	t.UserCycles += uint64(k.Eng.Now()-t.opStart) + 1
	k.Eng.Schedule(sim.CompKernel, 1, t.stepFn)
}

// storeData produces the deterministic payload for a store: a pattern
// derived from the address and the thread's store sequence number, so
// every write changes memory contents verifiably. The returned slice
// aliases the thread's reused payload buffer; it is stable until the
// store's done callback fires, which is exactly the window Core.Write
// reads it in (threads issue at most one op at a time). Without fill
// the payload is left unwritten, for a store the core keeps no bytes of
// (its whole range is timing-only); the sequence number still advances,
// so every later payload is unchanged.
func (t *Thread) storeData(op workload.Op, fill bool) []byte {
	t.storeSeq++
	if cap(t.storeBuf) < int(op.Size) {
		t.storeBuf = make([]byte, op.Size)
	}
	data := t.storeBuf[:op.Size]
	if !fill {
		return data
	}
	// Byte i is seed byte i%8 xor byte(i), written a word at a time: a
	// word at i (a multiple of 8) xors the seed with bytes byte(i)..
	// byte(i)+7, which never carry.
	seed := op.Addr ^ t.storeSeq*0x9e3779b97f4a7c15
	i := 0
	for ; i+8 <= len(data); i += 8 {
		binary.LittleEndian.PutUint64(data[i:], seed^(uint64(byte(i))*0x0101010101010101+0x0706050403020100))
	}
	for ; i < len(data); i++ {
		data[i] = byte(seed>>(8*(i%8))) ^ byte(i)
	}
	return data
}

// parkOrRequeue handles a thread that just left its core: a requested
// pause parks it (checkpoint); otherwise it goes to the back of the run
// queue (quantum expiry).
func (k *Kernel) parkOrRequeue(t *Thread) {
	if t.pauseRequested {
		t.state = threadPaused
		t.pauseRequested = false
		if w := t.pauseWaiter; w != nil {
			t.pauseWaiter = nil
			w()
		}
		return
	}
	t.state = threadReady
	t.home.runq = append(t.home.runq, t)
}

// pauseThread asks the thread to stop at its next op boundary; done fires
// once it is parked with its mechanism state saved and quiescent.
func (k *Kernel) pauseThread(t *Thread, done func()) {
	switch t.state {
	case threadDone, threadPaused:
		k.Eng.Schedule(sim.CompKernel, 0, done)
	case threadReady:
		// Off-core: its mechanism state was already saved at yield.
		// Remove from the run queue and park directly.
		q := t.home.runq
		for i, q0 := range q {
			if q0 == t {
				t.home.runq = append(q[:i], q[i+1:]...)
				break
			}
		}
		t.state = threadPaused
		k.Eng.Schedule(sim.CompKernel, 0, done)
	case threadRunning:
		t.pauseRequested = true
		t.needYield = true
		t.pauseWaiter = done
	}
}

// resumeThread makes a paused thread runnable again.
func (k *Kernel) resumeThread(t *Thread) {
	if t.state != threadPaused {
		return
	}
	k.enqueue(t)
}

package kernel

import (
	"errors"
	"fmt"

	"prosper/internal/mem"
	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/workload"
)

// ErrRecoveryDrained reports that the engine ran out of events before a
// recovering process became runnable.
var ErrRecoveryDrained = errors.New("recovery never completed (engine drained)")

// RecoverProcess rebuilds a crashed process from its NVM checkpoint area
// on a kernel booted from a crash image (machine.Machine.CrashImage).
// The caller provides the same ProcessConfig and fresh program instances
// (like an init script relaunching services); the kernel re-binds them to
// the persisted segments, runs each mechanism's recovery path to restore
// DRAM contents (and repair torn applies), restores the register state
// and, for checkpointable programs, the execution position of the last
// committed checkpoint. It runs the engine until the process is runnable
// again and returns it, or ErrRecoveryDrained if the engine drains first.
// Like Spawn, it panics when the stack and the heap both use a Prosper
// tracker.
func (k *Kernel) RecoverProcess(cfg ProcessConfig, progs []workload.Program) (*Process, error) {
	cfg = cfg.withDefaults()
	checkTrackerUse(cfg)
	headerAddr, ok, err := k.super.findProc(cfg.Name)
	if err != nil {
		return nil, fmt.Errorf("kernel: %w", err)
	}
	if !ok {
		return nil, fmt.Errorf("kernel: no checkpoint area for process %q", cfg.Name)
	}
	if k.FindProc(cfg.Name) != nil {
		return nil, fmt.Errorf("kernel: process %q is already running", cfg.Name)
	}
	st := k.Mach.Storage
	h, err := readProcHeader(st, headerAddr)
	if err != nil {
		return nil, fmt.Errorf("kernel: process %q: %w", cfg.Name, err)
	}
	if len(h.threads) != len(progs) {
		return nil, fmt.Errorf("kernel: %d programs supplied for %d persisted threads", len(progs), len(h.threads))
	}
	if h.stackReserve != cfg.StackReserve || h.heapSize != cfg.HeapSize {
		return nil, fmt.Errorf("kernel: recovery config mismatch (reserve %d vs %d, heap %d vs %d)",
			cfg.StackReserve, h.stackReserve, cfg.HeapSize, h.heapSize)
	}

	// Find every thread's register checkpoint before anything is
	// attached: a heap mechanism's Attach starts work on the engine (an
	// SSP heap's consolidation ticker), so a recovery that fails here
	// must not have attached one.
	regs := make([]regSlot, len(h.threads))
	for i, th := range h.threads {
		// Per-thread recovery epoch. A power failure inside the commit
		// window leaves the stack segment's step-1 commit record durable
		// at seq+1 while the process header still reads seq; the image may
		// already be partially applied and can only be rolled forward, so
		// the durable stack sequence — not the header — dictates this
		// thread's epoch. Mechanisms without a durable sequence fall back
		// to the committed header epoch.
		epoch := h.seq
		if ms, ok := persist.DurableSegmentSeq(st, th.stack.MetaBase); ok {
			epoch = ms
		}
		if regs[i], ok = registerSlot(st, th.regArea, epoch); !ok {
			return nil, fmt.Errorf("kernel: thread %d has no register checkpoint", i)
		}
	}
	p := k.build(cfg, headerAddr, h, progs, regs)

	// Run every mechanism's recovery path, then make threads runnable.
	pending := len(p.Threads) + 1
	runnable := false
	complete := func() {
		pending--
		if pending > 0 {
			return
		}
		k.start(p)
		runnable = true
	}
	for _, t := range p.Threads {
		t.mech.Recover(complete)
	}
	if p.heapMech != nil {
		p.heapMech.Recover(complete)
	} else {
		k.Eng.Schedule(sim.CompKernel, 0, func() { complete() })
	}
	k.Eng.RunWhile(func() bool { return !runnable })
	if !runnable {
		return nil, ErrRecoveryDrained
	}
	return p, nil
}

// registerSlot returns the slot of the register area at regArea stamped
// with epoch, falling back to the newest older stamp (threads that finish
// early stop saving registers, so their stamp can lag). Slots stamped
// past the epoch belong to a persist whose stack never became durable,
// and a slot whose snapshot length overruns its page is torn. ok is false
// when no slot qualifies. Only the chosen slot's snapshot is read.
func registerSlot(st *mem.Storage, regArea, epoch uint64) (reg regSlot, ok bool) {
	var addr, snapLen uint64
	for at := regArea; at < regArea+2*mem.PageSize; at += mem.PageSize {
		r := regSlot{sp: st.ReadU64(at), storeSeq: st.ReadU64(at + 8), epoch: st.ReadU64(at + 16)}
		n := st.ReadU64(at + 24)
		if r.sp == 0 || r.epoch > epoch || n > mem.PageSize-32 {
			continue
		}
		if !ok || r.epoch > reg.epoch {
			reg, addr, snapLen, ok = r, at, n, true
		}
	}
	if ok {
		reg.snap = make([]byte, snapLen)
		st.Read(addr+32, reg.snap)
	}
	return reg, ok
}

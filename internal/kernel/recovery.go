package kernel

import (
	"errors"
	"fmt"

	"prosper/internal/mem"
	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/stats"
	"prosper/internal/vm"
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
	headerAddr, ok := k.super.findProc(cfg.Name)
	if !ok {
		return nil, fmt.Errorf("kernel: no checkpoint area for process %q", cfg.Name)
	}
	for _, q := range k.procs {
		if q.Name == cfg.Name {
			return nil, fmt.Errorf("kernel: process %q is already running", cfg.Name)
		}
	}
	st := k.Mach.Storage
	hdr := make([]byte, mem.PageSize)
	st.Read(headerAddr, hdr)
	seq := mustU64(hdr, 0)
	nThreads := int(mustU64(hdr, 8))
	stackReserve := mustU64(hdr, 16)
	heapSize := mustU64(hdr, 24)
	if nThreads != len(progs) {
		return nil, fmt.Errorf("kernel: %d programs supplied for %d persisted threads", len(progs), nThreads)
	}
	if stackReserve != cfg.StackReserve || heapSize != cfg.HeapSize {
		return nil, fmt.Errorf("kernel: recovery config mismatch (reserve %d vs %d, heap %d vs %d)",
			cfg.StackReserve, stackReserve, cfg.HeapSize, heapSize)
	}

	// Find every thread's register checkpoint before anything is
	// attached: a heap mechanism's Attach starts work on the engine (an
	// SSP heap's consolidation ticker), so a recovery that fails here
	// must not have attached one.
	regs := make([][]byte, nThreads)
	regEpochs := make([]uint64, nThreads)
	for i := range nThreads {
		off := 64 + i*64
		// Per-thread recovery epoch. A power failure inside the commit
		// window leaves the stack segment's step-1 commit record durable
		// at seq+1 while the process header still reads seq; the image may
		// already be partially applied and can only be rolled forward, so
		// the durable stack sequence — not the header — dictates this
		// thread's epoch. Mechanisms without a durable sequence fall back
		// to the committed header epoch.
		epoch := seq
		if ms, ok := persist.DurableSegmentSeq(st, mustU64(hdr, off+8)); ok {
			epoch = ms
		}
		reg, regEpoch, ok := registerSlot(st, mustU64(hdr, off+24), epoch)
		if !ok {
			return nil, fmt.Errorf("kernel: thread %d has no register checkpoint", i)
		}
		regs[i], regEpochs[i] = reg, regEpoch
	}

	p := &Process{
		PID:        k.nextPID,
		Name:       cfg.Name,
		Cfg:        cfg,
		AS:         vm.NewAddressSpace(k.Mach.DRAMFrames, k.Mach.NVMFrames),
		kern:       k,
		headerAddr: headerAddr,
		ckptSeq:    seq,
		Counters:   stats.NewCounters(),
	}
	k.nextPID++

	heapInNVM := false
	if cfg.HeapMech != nil {
		p.heapMech = cfg.HeapMech()
		heapInNVM = p.heapMech.PlaceInNVM()
	}
	check(p.AS.AddVMA(&vm.VMA{
		Lo: heapBase, Hi: heapBase + cfg.HeapSize, Kind: vm.KindHeap,
		Writable: true, InNVM: heapInNVM, ThreadID: -1,
	}))
	if p.heapMech != nil {
		p.HeapSeg = persist.Segment{
			Lo: heapBase, Hi: heapBase + cfg.HeapSize, Kind: vm.KindHeap,
			ImageBase: mustU64(hdr, 32),
			MetaBase:  mustU64(hdr, 40),
			MetaSize:  mustU64(hdr, 48),
		}
		p.heapMech.Attach(k.env(p), p.HeapSeg)
	}

	for i := 0; i < nThreads; i++ {
		off := 64 + i*64
		// Recreate the thread against its persisted areas. The stack's
		// virtual placement must match the original layout, which is a
		// pure function of (original PID, TID); the original PID is
		// recoverable from the image segment... we persist layout
		// implicitly by storing the virtual range in the register area at
		// every checkpoint; here we derive it from the recorded reserve
		// and the register save.
		regArea := mustU64(hdr, off+24)
		reg, regEpoch := regs[i], regEpochs[i]
		sp := mustU64(reg, 0)
		storeSeq := mustU64(reg, 8)
		snapLen := mustU64(reg, 24)

		stackHi := ((sp + stackSpacing - 1) / stackSpacing) * stackSpacing
		stackLo := stackHi - cfg.StackReserve
		t := &Thread{
			TID:  i,
			Proc: p,
			Prog: progs[i],
			sp:   sp,
			home: k.leastLoadedCore(),
		}
		t.storeSeq = storeSeq
		t.bindOps(k)
		t.Ctx = workload.Context{
			StackHi:      stackHi,
			StackReserve: cfg.StackReserve,
			HeapLo:       heapBase,
			HeapSize:     cfg.HeapSize,
			Seed:         cfg.Seed + uint64(i)*7919,
		}
		if cfg.StackMech != nil {
			t.mech = cfg.StackMech()
		} else {
			t.mech = persist.NewNone()()
		}
		check(p.AS.AddVMA(&vm.VMA{
			Lo: stackLo, Hi: stackHi, Kind: vm.KindStack,
			Writable: true, InNVM: t.mech.PlaceInNVM(), ThreadID: i,
		}))
		t.StackSeg = persist.Segment{
			Lo: stackLo, Hi: stackHi, Kind: vm.KindStack,
			ImageBase: mustU64(hdr, off),
			MetaBase:  mustU64(hdr, off+8),
			MetaSize:  mustU64(hdr, off+16),
		}
		t.regArea = regArea
		t.ckptEpoch = regEpoch
		t.mech.Attach(k.env(p), t.StackSeg)

		t.Prog.Start(t.Ctx)
		if c, ok := t.Prog.(workload.Checkpointable); ok && snapLen > 0 {
			c.Restore(reg[32 : 32+snapLen])
		}
		p.Threads = append(p.Threads, t)
	}
	k.procs = append(k.procs, p)
	p.traceTrack = k.Trace.Track("ckpt:" + p.Name)

	// Run every mechanism's recovery path, then make threads runnable.
	pending := len(p.Threads) + 1
	runnable := false
	complete := func() {
		pending--
		if pending > 0 {
			return
		}
		for _, t := range p.Threads {
			k.enqueue(t)
		}
		if cfg.CheckpointInterval > 0 {
			p.ckptTicker = k.Eng.NewTicker(sim.CompKernel, cfg.CheckpointInterval, func() { k.checkpointProcess(p, nil) })
		}
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
// past the epoch belong to a persist whose stack never became durable.
// ok is false when no slot qualifies.
func registerSlot(st *mem.Storage, regArea, epoch uint64) (reg []byte, regEpoch uint64, ok bool) {
	for s := uint64(0); s < 2; s++ {
		slot := make([]byte, mem.PageSize)
		st.Read(regArea+s*mem.PageSize, slot)
		stamp := mustU64(slot, 16)
		if mustU64(slot, 0) == 0 || stamp > epoch {
			continue
		}
		if reg == nil || stamp > regEpoch {
			reg, regEpoch = slot, stamp
		}
	}
	return reg, regEpoch, reg != nil
}

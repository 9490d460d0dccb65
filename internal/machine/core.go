package machine

import (
	"fmt"

	"prosper/internal/cache"
	"prosper/internal/journey"
	"prosper/internal/mem"
	"prosper/internal/sim"
	"prosper/internal/stats"
	"prosper/internal/vm"
)

// StoreObserver sees every store the core issues, with its virtual
// address, before it enters the cache hierarchy. The Prosper dirty
// tracker and Romulus's hardware logger implement this.
type StoreObserver interface {
	ObserveStore(vaddr uint64, size int)
}

// FaultHandler resolves a page fault in kernel context; the machine
// charges Config.PageFaultCycles around the call. Returning an error
// kills the access (simulated segfault).
type FaultHandler func(vaddr uint64, write bool) error

// Core is one in-order simulated CPU. The kernel binds an address space,
// fault handler, and optional observers before running code on it.
//
// The access path is closure-free: each in-flight Read/Write is tracked
// by pooled continuation records (memOp/segOp/walkOp) whose callbacks are
// method values bound once when the record is first created, so the
// steady-state load/store path allocates nothing.
type Core struct {
	ID   int      //prosperlint:ignore snapshot identity, fixed at construction; SaveSnap only names it in diagnostics
	mach *Machine //prosperlint:ignore snapshot boot-time wiring; SaveSnap only reads its config for the quiescence check
	eng  *sim.Engine

	TLB *vm.TLB
	l1  *cache.Cache
	l2  *cache.Cache

	// Context, owned by the kernel.
	AS       *vm.AddressSpace
	OnFault  FaultHandler
	Observer StoreObserver
	// StoreHook, when set, interposes extra persistence work per store
	// (Romulus logging, SSP shadow remapping); it runs after the
	// functional write, may issue its own timed traffic, and returns a
	// stall the store pipeline must absorb before the store retires
	// (e.g. SSP's shadow-line remap resolution from NVM).
	StoreHook func(vaddr, paddr uint64, size int) sim.Time
	// Stores whose virtual address lies in [TimingOnlyLo, TimingOnlyHi)
	// are timing-only, like loads: they translate, fault, hook and
	// occupy the store buffer and caches, but write no bytes to Storage
	// because nothing ever reads them back (the kernel binds a volatile
	// heap no mechanism persists). Empty by default: a bare core keeps
	// every byte.
	TimingOnlyLo, TimingOnlyHi uint64

	storeCredits int      //prosperlint:ignore snapshot SaveSnap asserts the store buffer drained; a fresh boot's full credit pool needs no restoring
	storeWaiters []func() //prosperlint:ignore snapshot SaveSnap asserts no waiters; a fresh boot's empty list needs no restoring
	//prosperlint:ignore snapshot SaveSnap asserts it equals len(storeWaiters); implied by the drained store buffer
	swHead int // oldest waiting credit requester

	// relCreditTok returns one store-buffer credit on L1 completion; the
	// method value is materialized once here instead of per store.
	relCreditTok sim.Done
	// relCreditJFn is the sampled-store variant: it releases the credit
	// and retires the store's journey segment (the journey ID rides the
	// token's bound argument). Materialized once; only sampled stores
	// bind it, so the tracing-off path never touches it.
	relCreditJFn func(uint64)

	// journeys, when attached, samples and records per-access journeys.
	// Boot-time wiring like mach/eng: the snapshot runner rejects
	// journey-enabled specs, so there is no state to save (§15).
	journeys *journey.Recorder

	// Continuation free lists. Records cycle between the pools and the
	// in-flight sets; their bound callbacks are created at record birth.
	opFree   []*memOp
	segFree  []*segOp
	walkFree []*walkOp

	Counters *stats.Counters
	// Counter handles, registered on first use so Counters keeps the
	// order the string-keyed Inc calls gave it.
	loads, stores, pageWalks               stats.LazyCounter
	sbStalls, storeHookStalls              stats.LazyCounter
	dirtySetWalks, pageFaults, ctxSwitches stats.LazyCounter
}

func newCore(m *Machine, id int) *Core {
	c := &Core{
		ID:           id,
		mach:         m,
		eng:          m.Eng,
		TLB:          vm.NewTLB(fmt.Sprintf("core%d.tlb", id), m.Cfg.TLBEntries),
		l1:           m.Hier.L1D[id],
		l2:           m.Hier.L2[id],
		storeCredits: m.Cfg.StoreBuffer,
		Counters:     stats.NewCounters(),
	}
	c.relCreditTok = sim.Thunk(sim.CompWorkload, c.releaseStoreCredit)
	c.relCreditJFn = c.releaseStoreCreditJourney
	c.loads = c.Counters.Lazy("core.loads")
	c.stores = c.Counters.Lazy("core.stores")
	c.pageWalks = c.Counters.Lazy("core.page_walks")
	c.sbStalls = c.Counters.Lazy("core.store_buffer_stalls")
	c.storeHookStalls = c.Counters.Lazy("core.store_hook_stalls")
	c.dirtySetWalks = c.Counters.Lazy("core.dirty_set_walks")
	c.pageFaults = c.Counters.Lazy("core.page_faults")
	c.ctxSwitches = c.Counters.Lazy("core.context_switches")
	return c
}

// memOp is one in-flight Read or Write: the store payload, the caller's
// completion, and the count of line segments still outstanding.
type memOp struct {
	data      []byte // store payload (caller-owned, released on free)
	done      func()
	remaining int
}

// segOp is one cache-line segment of a memOp, with its continuations
// bound once at record birth: translatedFn resumes after address
// translation, lineDoneTok after the L1 access, issueFn after a
// store-hook stall, creditFn after a store-buffer credit is granted.
type segOp struct {
	core   *Core
	op     *memOp
	va     uint64
	off, n int
	write  bool
	paddr  uint64
	jid    uint32   // journey of the parent access (0: unsampled)
	sbWait sim.Time // when the segment began waiting for a store credit

	translatedFn func(uint64)
	lineDoneTok  sim.Done
	issueFn      func()
	creditFn     func()
}

// walkOp is one hardware page walk: the dependent chain of table reads
// plus the translation continuation that runs when it finishes.
type walkKind uint8

const (
	walkTLBMiss walkKind = iota
	walkDirtySet
)

type walkOp struct {
	core  *Core
	kind  walkKind
	vaddr uint64
	write bool
	jid   uint32 // journey of the access that triggered the walk
	k     func(uint64)
	entry *vm.TLBEntry // dirty-set walks: the hitting TLB entry
	addrs [4]uint64
	n, i  int
	began sim.Time

	stepFn sim.Done
}

func (c *Core) allocOp() *memOp {
	if n := len(c.opFree); n > 0 {
		op := c.opFree[n-1]
		c.opFree = c.opFree[:n-1]
		return op
	}
	return &memOp{}
}

func (c *Core) freeOp(op *memOp) {
	op.data = nil
	op.done = nil
	c.opFree = append(c.opFree, op)
}

func (c *Core) allocSeg() *segOp {
	if n := len(c.segFree); n > 0 {
		s := c.segFree[n-1]
		c.segFree = c.segFree[:n-1]
		return s
	}
	s := &segOp{core: c}
	s.translatedFn = s.translated
	s.lineDoneTok = sim.Thunk(sim.CompWorkload, s.lineDone)
	s.issueFn = s.issue
	s.creditFn = s.credited
	return s
}

func (c *Core) freeSeg(s *segOp) {
	s.op = nil
	c.segFree = append(c.segFree, s)
}

func (c *Core) allocWalk() *walkOp {
	if n := len(c.walkFree); n > 0 {
		w := c.walkFree[n-1]
		c.walkFree = c.walkFree[:n-1]
		return w
	}
	w := &walkOp{core: c}
	w.stepFn = sim.Thunk(sim.CompVM, w.step)
	return w
}

func (c *Core) freeWalk(w *walkOp) {
	w.k = nil
	w.entry = nil
	c.walkFree = append(c.walkFree, w)
}

// L1 returns the core's private L1D (the Prosper tracker taps the port in
// front of it).
func (c *Core) L1() *cache.Cache { return c.l1 }

// L2 returns the core's private L2; tracker-generated bitmap traffic is
// injected here so it does not pollute L1 but still contends below it.
func (c *Core) L2() *cache.Cache { return c.l2 }

// StoreBufferInUse returns how many store-buffer entries are occupied
// right now; telemetry samples it against Config.StoreBuffer.
func (c *Core) StoreBufferInUse() int { return c.mach.Cfg.StoreBuffer - c.storeCredits }

// SwitchContext rebinds the core to a new address space, flushing the TLB
// like a CR3 write.
func (c *Core) SwitchContext(as *vm.AddressSpace) {
	c.AS = as
	c.TLB.Flush()
	c.ctxSwitches.Inc()
}

// translate resolves vaddr and calls k with the physical address. It
// models TLB lookup, hardware page walks (timed reads through L2 of the
// real walk addresses), dirty-bit setting walks on first store to a clean
// page, and page faults through the kernel handler.
func (c *Core) translate(vaddr uint64, write bool, jid uint32, k func(paddr uint64)) {
	if e := c.TLB.Lookup(vaddr); e != nil {
		if write && !e.Write {
			c.fault(vaddr, write, jid, k)
			return
		}
		if write && !e.Dirty {
			// First store since the PTE's dirty bit was cleared: the page
			// walker must set it in memory (this is what gives the
			// Dirtybit tracking baseline its per-page cost).
			w := c.allocWalk()
			w.kind = walkDirtySet
			w.vaddr, w.write, w.k, w.entry = vaddr, write, k, e
			w.jid = jid
			c.startWalk(w)
			return
		}
		k(e.Frame | (vaddr & (mem.PageSize - 1)))
		return
	}
	// TLB miss: hardware walk.
	w := c.allocWalk()
	w.kind = walkTLBMiss
	w.vaddr, w.write, w.k = vaddr, write, k
	w.jid = jid
	c.startWalk(w)
}

// startWalk issues the dependent chain of page-table reads through L2 and
// records the end-to-end walk latency into the TLB's distribution.
func (c *Core) startWalk(w *walkOp) {
	c.pageWalks.Inc()
	w.n = c.AS.PT.WalkAddrsInto(w.vaddr, &w.addrs)
	w.began = c.eng.Now()
	w.i = 0
	w.step()
}

func (w *walkOp) step() {
	c := w.core
	if w.i >= w.n {
		c.TLB.WalkLatency.Observe(uint64(c.eng.Now() - w.began))
		w.finish()
		return
	}
	a := w.addrs[w.i]
	w.i++
	c.l2.Access(false, a, w.stepFn.WithJourney(w.jid))
}

// finish completes the walk: it re-reads the page table functionally and
// resumes the translation continuation (or faults). The walkOp is retired
// before the continuation runs so it can be reused by walks the
// continuation itself triggers.
func (w *walkOp) finish() {
	c := w.core
	vaddr, write, jid := w.vaddr, w.write, w.jid
	k := w.k
	if jid != 0 {
		cause := journey.CauseWalk
		if w.kind == walkDirtySet {
			cause = journey.CauseDirtySet
		}
		c.journeys.Span(jid, journey.StageTLB, cause, w.began, c.eng.Now())
	}
	if w.kind == walkDirtySet {
		e := w.entry
		c.freeWalk(w)
		pte := c.AS.PT.Lookup(vaddr)
		if pte == nil || !pte.Present() {
			c.fault(vaddr, write, jid, k)
			return
		}
		pte.Flags |= vm.FlagDirty | vm.FlagAccess
		e.Dirty = true
		c.dirtySetWalks.Inc()
		k(e.Frame | (vaddr & (mem.PageSize - 1)))
		return
	}
	c.freeWalk(w)
	paddr, pte, ok := c.AS.PT.Translate(vaddr)
	if !ok || (write && !pte.Writable()) {
		c.fault(vaddr, write, jid, k)
		return
	}
	pte.Flags |= vm.FlagAccess
	if write {
		pte.Flags |= vm.FlagDirty
	}
	c.TLB.Insert(vaddr, paddr&^uint64(mem.PageSize-1), pte.Writable(), pte.Dirty())
	k(paddr)
}

// fault invokes the kernel fault handler, charges the fault cost, and
// retries the translation. An unresolvable fault panics: simulated
// workloads are not supposed to segfault. Faults are rare, so the retry
// closure is the one place the translation path still allocates.
func (c *Core) fault(vaddr uint64, write bool, jid uint32, k func(uint64)) {
	c.pageFaults.Inc()
	if c.OnFault == nil {
		panic("machine: page fault with no handler")
	}
	if err := c.OnFault(vaddr, write); err != nil {
		panic("machine: " + err.Error())
	}
	if jid != 0 {
		now := c.eng.Now()
		c.journeys.Span(jid, journey.StageTLB, journey.CauseFault, now, now+c.mach.Cfg.PageFaultCycles)
	}
	c.TLB.Invalidate(vaddr)
	c.eng.Schedule(sim.CompVM, c.mach.Cfg.PageFaultCycles, func() {
		c.translate(vaddr, write, jid, k)
	})
}

// Read performs a timed load of size bytes at vaddr; done fires once the
// slowest line completes. Loads are timing-only: no bytes move, because
// nothing in the simulated programs consumes loaded values. The data
// stays readable in Storage at the translated address. An empty load
// completes at +0 cycles.
func (c *Core) Read(vaddr uint64, size int, done func()) {
	c.loads.Inc()
	if size <= 0 {
		c.completeEmpty(done)
		return
	}
	op := c.allocOp()
	op.done = done
	op.remaining = mem.LinesSpanned(vaddr, size)
	jid := c.journeys.Start(c.eng.Now(), false, vaddr, size, op.remaining)
	c.issueSegs(op, vaddr, size, false, jid)
}

// Write performs a store of data at vaddr. done fires when the store has
// been accepted into the store buffer (program order can continue), not
// when it completes in the memory system; completion returns the buffer
// credit asynchronously, so a full store buffer stalls the core exactly
// like real hardware.
func (c *Core) Write(vaddr uint64, data []byte, done func()) {
	c.stores.Inc()
	if c.Observer != nil {
		c.Observer.ObserveStore(vaddr, len(data))
	}
	if len(data) == 0 {
		c.completeEmpty(done)
		return
	}
	op := c.allocOp()
	op.data = data
	op.done = done
	op.remaining = mem.LinesSpanned(vaddr, len(data))
	jid := c.journeys.Start(c.eng.Now(), true, vaddr, len(data), op.remaining)
	c.issueSegs(op, vaddr, len(data), true, jid)
}

// completeEmpty retires a zero-length access through the engine at +0
// cycles, so its caller resumes exactly as after any other access.
func (c *Core) completeEmpty(done func()) {
	if done != nil {
		c.eng.Schedule(sim.CompWorkload, 0, done)
	}
}

// issueSegs cuts [vaddr, vaddr+size) at cache-line boundaries and starts
// one segment record per line, in address order.
func (c *Core) issueSegs(op *memOp, vaddr uint64, size int, write bool, jid uint32) {
	off := 0
	for size > 0 {
		space := int(mem.LineSize - (vaddr & (mem.LineSize - 1)))
		n := size
		if n > space {
			n = space
		}
		s := c.allocSeg()
		s.op = op
		s.va, s.off, s.n, s.write = vaddr, off, n, write
		s.jid = jid
		c.translate(vaddr, write, jid, s.translatedFn)
		vaddr += uint64(n)
		off += n
		size -= n
	}
}

// translated resumes a segment once its physical address is known: a
// read goes straight to its timed cache access; a write moves its bytes
// into Storage immediately (unless its address is timing-only), then
// enters the store pipeline.
func (s *segOp) translated(paddr uint64) {
	c := s.core
	if !s.write {
		c.l1.Access(false, paddr, s.lineDoneTok.WithJourney(s.jid))
		return
	}
	if s.va < c.TimingOnlyLo || s.va >= c.TimingOnlyHi {
		c.mach.Storage.Write(paddr, s.op.data[s.off:s.off+s.n])
	}
	var stall sim.Time
	if c.StoreHook != nil {
		stall = c.StoreHook(s.va, paddr, s.n)
	}
	s.paddr = paddr
	if stall > 0 {
		c.storeHookStalls.Inc()
		if s.jid != 0 {
			now := c.eng.Now()
			c.journeys.Span(s.jid, journey.StageHook, journey.CauseStoreHook, now, now+stall)
		}
		c.eng.Schedule(sim.CompWorkload, stall, s.issueFn)
	} else {
		s.issue()
	}
}

// lineDone retires one read segment at L1 completion.
func (s *segOp) lineDone() {
	c := s.core
	op := s.op
	if s.jid != 0 {
		c.journeys.SegDone(s.jid, c.eng.Now())
	}
	c.freeSeg(s)
	op.remaining--
	if op.remaining == 0 {
		if op.done != nil {
			op.done()
		}
		c.freeOp(op)
	}
}

// issue enters a write segment into the store-credit queue.
func (s *segOp) issue() {
	if s.jid != 0 {
		s.sbWait = s.core.eng.Now()
	}
	s.core.acquireStoreCredit(s.creditFn)
}

// credited runs once the store buffer accepts the segment: the timed L1
// write goes out carrying the credit-release token, and the segment
// retires (program order continues at acceptance, not completion).
// A sampled store's journey runs to memory-system completion, not
// acceptance: its token retires the journey segment when the credit
// comes back.
func (s *segOp) credited() {
	c := s.core
	op := s.op
	tok := c.relCreditTok
	if s.jid != 0 {
		now := c.eng.Now()
		if now > s.sbWait {
			c.journeys.Span(s.jid, journey.StageStoreBuf, journey.CauseSBFull, s.sbWait, now)
		}
		tok = sim.Bind(sim.CompWorkload, c.relCreditJFn, uint64(s.jid)).WithJourney(s.jid)
	}
	c.l1.Access(true, s.paddr, tok)
	c.freeSeg(s)
	op.remaining--
	if op.remaining == 0 {
		if op.done != nil {
			op.done()
		}
		c.freeOp(op)
	}
}

func (c *Core) acquireStoreCredit(k func()) {
	if c.storeCredits > 0 {
		c.storeCredits--
		k()
		return
	}
	c.sbStalls.Inc()
	c.storeWaiters = append(c.storeWaiters, k)
}

// releaseStoreCreditJourney is the sampled-store completion: the credit
// returns and the journey's segment retires at true completion time.
func (c *Core) releaseStoreCreditJourney(jid uint64) {
	c.releaseStoreCredit()
	c.journeys.SegDone(uint32(jid), c.eng.Now())
}

func (c *Core) releaseStoreCredit() {
	if c.swHead < len(c.storeWaiters) {
		k := c.storeWaiters[c.swHead]
		c.storeWaiters[c.swHead] = nil
		c.swHead++
		if c.swHead == len(c.storeWaiters) {
			c.storeWaiters = c.storeWaiters[:0]
			c.swHead = 0
		}
		k()
		return
	}
	c.storeCredits++
}

// DrainStores calls done once every in-flight store has left the store
// buffer (a store fence, used around checkpoints and context switches).
func (c *Core) DrainStores(done func()) {
	if c.storeCredits == c.mach.Cfg.StoreBuffer && c.swHead == len(c.storeWaiters) {
		c.eng.Schedule(sim.CompKernel, 0, done)
		return
	}
	c.eng.Schedule(sim.CompKernel, 20, func() { c.DrainStores(done) })
}

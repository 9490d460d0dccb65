package mem

import (
	"fmt"

	"prosper/internal/journey"
	"prosper/internal/sim"
	"prosper/internal/stats"
)

// DeviceConfig captures the timing behaviour of one memory device. All
// durations are in cycles at sim.Frequency.
type DeviceConfig struct {
	Name string

	// ReadLatency / WriteLatency is the access latency from the moment a
	// request begins service at a bank to completion.
	ReadLatency  sim.Time
	WriteLatency sim.Time

	// Banks is the number of independently schedulable banks, a power of
	// two (zero means one); BankBusyRead and BankBusyWrite are the
	// occupancy a request imposes on its bank.
	Banks         int
	BankBusyRead  sim.Time
	BankBusyWrite sim.Time

	// BusPerAccess is the channel serialization cost of transferring one
	// line; it bounds the device's peak bandwidth.
	BusPerAccess sim.Time

	// ReadBuffer and WriteBuffer limit in-flight requests of each class
	// (NVM interface of Table II: 64-entry read, 48-entry write buffers).
	// Zero means unlimited.
	ReadBuffer  int
	WriteBuffer int
}

// DDR4Config models the DDR4-2400 16x4 DRAM interface of Table II:
// ~45 ns access, 16 banks, ~19 GB/s peak line bandwidth.
func DDR4Config() DeviceConfig {
	return DeviceConfig{
		Name:          "dram",
		ReadLatency:   135, // 45 ns
		WriteLatency:  135,
		Banks:         16,
		BankBusyRead:  100,
		BankBusyWrite: 100,
		BusPerAccess:  10, // 64 B / 3.33 ns -> 19.2 GB/s
	}
}

// PCMConfig models the PCM NVM interface of Table II with the read/write
// buffer sizes the paper configures and the asymmetric latencies of
// phase-change memory (reads ~3x DRAM, writes ~10x).
func PCMConfig() DeviceConfig {
	return DeviceConfig{
		Name:          "nvm",
		ReadLatency:   450,  // 150 ns
		WriteLatency:  1500, // 500 ns
		Banks:         16,
		BankBusyRead:  250,
		BankBusyWrite: 900, // 300 ns bank occupancy -> ~3.4 GB/s write BW
		BusPerAccess:  20,  // ~9.6 GB/s channel
		ReadBuffer:    64,
		WriteBuffer:   48,
	}
}

type pendingAccess struct {
	write   bool
	addr    uint64
	done    sim.Done
	arrived sim.Time // when the request reached the device (Access time)
}

// devCompletion is one access whose device latency has been computed and
// whose completion bookkeeping is waiting to run.
type devCompletion struct {
	write bool
	addr  uint64
	done  sim.Done
}

// completionBatch collects completions that fire in the same event. Its
// items backing is reused across lives via the device free list.
type completionBatch struct {
	items []devCompletion
}

// PersistSink observes a device's write stream so a persistence domain
// can track which lines have actually reached durable media. Both hooks
// are pure observers: they must not schedule events or alter timing.
type PersistSink interface {
	// WriteAdmitted fires when a write begins service at the device
	// (its functional bytes are already in Storage at that point).
	WriteAdmitted(addr uint64)
	// WriteCompleted fires when that write's device latency elapses.
	WriteCompleted(addr uint64)
}

// Device is the timing model of one memory device. It services accesses
// through banked queues with a shared channel bus and optional per-class
// buffer backpressure. Function (data movement) lives in Storage, not here.
//
// Completions are batched: a burst of accesses finishing on the same
// cycle schedules one engine event, not one per access. The batch is
// provably order-safe — a completion merges into the open batch only
// when the engine's schedule sequence has not advanced since the batch's
// previous member was added, which guarantees no other event could have
// ordered between them (seq is the same-cycle tiebreaker and every
// schedule consumes exactly one).
type Device struct {
	eng *sim.Engine
	cfg DeviceConfig

	bankFreeAt []sim.Time
	bankMask   uint64 // Banks-1: a line's bank is its line number's low bits
	busFreeAt  sim.Time

	inflightReads  int
	inflightWrites int
	waiting        []pendingAccess
	waitHead       int // index of the oldest waiter (popped without reslicing)
	sink           PersistSink

	batches    []*completionBatch
	batchFree  []int        // indices of retired batches
	completeFn func(uint64) // d.complete, materialized once
	openBatch  int          // batch still legal to merge into; -1 when none
	openFinish sim.Time     // the open batch's completion cycle
	openSeq    uint64       // engine seq right after the open batch was scheduled

	Counters   *stats.Counters
	Histograms *stats.Histograms

	// Precomputed counter handles for the per-access hot path.
	cReads        stats.Counter
	cWrites       stats.Counter
	cBufferStalls stats.Counter

	// Latency distributions, all in cycles per access:
	//   read_wait/write_wait   arrival to service start (queueing)
	//   bank_wait              the bank-conflict share of that wait
	//   read_latency/...       arrival to completion (wait + service)
	hReadWait     *stats.Histogram
	hWriteWait    *stats.Histogram
	hBankWait     *stats.Histogram
	hReadLatency  *stats.Histogram
	hWriteLatency *stats.Histogram

	// journeys, when attached, receives queue/service/drain spans for
	// sampled accesses (tokens carrying a journey ID). jNVM marks the
	// device as the persistence-side NVM so sampled write service is
	// charged to the drain stage. Boot-time wiring (§15).
	journeys *journey.Recorder
	jNVM     bool
}

// NewDevice builds a device timing model on the given engine. It panics
// on a bank count that is not a power of two.
func NewDevice(eng *sim.Engine, cfg DeviceConfig) *Device {
	if cfg.Banks <= 0 {
		cfg.Banks = 1
	}
	if cfg.Banks&(cfg.Banks-1) != 0 {
		panic(fmt.Sprintf("mem: %s: %d banks, want a power of two", cfg.Name, cfg.Banks))
	}
	d := &Device{
		eng:        eng,
		cfg:        cfg,
		bankFreeAt: make([]sim.Time, cfg.Banks),
		bankMask:   uint64(cfg.Banks - 1),
		openBatch:  -1,
		Counters:   stats.NewCounters(),
		Histograms: stats.NewHistograms(),
	}
	d.completeFn = d.complete
	d.cReads = d.Counters.Handle(cfg.Name + ".reads")
	d.cWrites = d.Counters.Handle(cfg.Name + ".writes")
	d.cBufferStalls = d.Counters.Handle(cfg.Name + ".buffer_stalls")
	d.hReadWait = d.Histograms.New("read_wait")
	d.hWriteWait = d.Histograms.New("write_wait")
	d.hBankWait = d.Histograms.New("bank_wait")
	d.hReadLatency = d.Histograms.New("read_latency")
	d.hWriteLatency = d.Histograms.New("write_latency")
	return d
}

// Name returns the configured device name.
func (d *Device) Name() string { return d.cfg.Name }

// SetPersistSink attaches a persistence-domain observer to the device's
// write stream (nil detaches it).
func (d *Device) SetPersistSink(s PersistSink) { d.sink = s }

// AttachJourneys wires the journey recorder into the device; nvm marks
// the device whose write service counts as persistence-domain drain.
func (d *Device) AttachJourneys(r *journey.Recorder, nvm bool) {
	d.journeys = r
	d.jNVM = nvm
}

// Access requests one line-sized access at addr; done fires when the
// device completes it. Writes may be delayed by write-buffer backpressure.
func (d *Device) Access(write bool, addr uint64, done sim.Done) {
	p := pendingAccess{write: write, addr: addr, done: done, arrived: d.eng.Now()}
	if d.admissible(write) {
		d.start(p)
		return
	}
	d.cBufferStalls.Inc()
	d.waiting = append(d.waiting, p)
}

func (d *Device) admissible(write bool) bool {
	if write {
		return d.cfg.WriteBuffer == 0 || d.inflightWrites < d.cfg.WriteBuffer
	}
	return d.cfg.ReadBuffer == 0 || d.inflightReads < d.cfg.ReadBuffer
}

func (d *Device) start(p pendingAccess) {
	bank := int((p.addr >> LineShift) & d.bankMask)
	now := d.eng.Now()
	start := now
	if d.bankFreeAt[bank] > start {
		start = d.bankFreeAt[bank]
	}
	d.hBankWait.Observe(uint64(start - now))
	bankStart := start
	if d.busFreeAt > start {
		start = d.busFreeAt
	}
	var occupancy, latency sim.Time
	if p.write {
		occupancy, latency = d.cfg.BankBusyWrite, d.cfg.WriteLatency
		d.inflightWrites++
		d.cWrites.Inc()
		d.hWriteWait.Observe(uint64(start - p.arrived))
		if d.sink != nil {
			d.sink.WriteAdmitted(p.addr)
		}
	} else {
		occupancy, latency = d.cfg.BankBusyRead, d.cfg.ReadLatency
		d.inflightReads++
		d.cReads.Inc()
		d.hReadWait.Observe(uint64(start - p.arrived))
	}
	d.bankFreeAt[bank] = start + occupancy
	d.busFreeAt = start + d.cfg.BusPerAccess
	finish := start + latency
	if p.write {
		d.hWriteLatency.Observe(uint64(finish - p.arrived))
	} else {
		d.hReadLatency.Observe(uint64(finish - p.arrived))
	}
	if jid := p.done.Journey(); jid != 0 {
		// All service timing is known here, so the spans are recorded
		// up front at their true (deterministic) cycles.
		if now > p.arrived {
			d.journeys.Span(jid, journey.StageDevQueue, journey.CauseBufferStall, p.arrived, now)
		}
		if start > now {
			cause := journey.CauseBankConflict
			if start > bankStart {
				cause = journey.CauseBusWait
			}
			d.journeys.Span(jid, journey.StageDevQueue, cause, now, start)
		}
		svcStage, svcCause := journey.StageDevService, journey.CauseDRAM
		if d.jNVM {
			svcCause = journey.CauseNVM
			if p.write && d.sink != nil {
				svcStage, svcCause = journey.StageDrain, journey.CauseNVMDrain
			}
		}
		d.journeys.Span(jid, svcStage, svcCause, start, finish)
	}
	d.enqueueCompletion(finish, devCompletion{write: p.write, addr: p.addr, done: p.done})
}

// enqueueCompletion schedules c's completion bookkeeping for cycle
// finish, merging into the open batch when that is provably
// order-equivalent: same completion cycle and no engine scheduling since
// the batch's last member, so no event exists (or can exist) that would
// have ordered between them.
func (d *Device) enqueueCompletion(finish sim.Time, c devCompletion) {
	if d.openBatch >= 0 && d.openFinish == finish && d.eng.ScheduleSeq() == d.openSeq {
		b := d.batches[d.openBatch]
		b.items = append(b.items, c)
		return
	}
	idx := d.allocBatch()
	b := d.batches[idx]
	b.items = append(b.items, c)
	d.eng.AtDone(finish, sim.Bind(sim.CompMem, d.completeFn, uint64(idx)))
	d.openBatch = idx
	d.openFinish = finish
	d.openSeq = d.eng.ScheduleSeq()
}

func (d *Device) allocBatch() int {
	if n := len(d.batchFree); n > 0 {
		idx := d.batchFree[n-1]
		d.batchFree = d.batchFree[:n-1]
		return idx
	}
	d.batches = append(d.batches, &completionBatch{})
	return len(d.batches) - 1
}

// complete runs one batch's completions in admission order, each with the
// same bookkeeping the per-access completion event used to perform.
func (d *Device) complete(bi uint64) {
	idx := int(bi)
	// Close the batch before running callbacks: a firing batch must not
	// accept further merges (its event has already been consumed).
	if d.openBatch == idx {
		d.openBatch = -1
	}
	b := d.batches[idx]
	for _, c := range b.items {
		if c.write {
			d.inflightWrites--
			if d.sink != nil {
				d.sink.WriteCompleted(c.addr)
			}
		} else {
			d.inflightReads--
		}
		d.drainWaiting()
		c.done.Run()
	}
	// Spent items are not cleared: their tokens hold only callbacks the
	// simulator keeps alive anyway, and the batch's next life overwrites
	// them.
	b.items = b.items[:0]
	d.batchFree = append(d.batchFree, idx)
}

// ReadQueueDepth returns the read-class queue occupancy right now:
// reads in flight at the banks plus reads parked in the admission queue.
// Telemetry samples it on a sim-time cadence.
func (d *Device) ReadQueueDepth() int {
	n := d.inflightReads
	for _, p := range d.waiting[d.waitHead:] {
		if !p.write {
			n++
		}
	}
	return n
}

// WriteQueueDepth returns the write-class queue occupancy right now:
// writes in flight plus writes waiting for a write-buffer slot. Watching
// it against cfg.WriteBuffer shows NVM write-buffer saturation directly.
func (d *Device) WriteQueueDepth() int {
	n := d.inflightWrites
	for _, p := range d.waiting[d.waitHead:] {
		if p.write {
			n++
		}
	}
	return n
}

// EstimatedWait returns the expected queueing delay a new request would
// see right now: average bank backlog, channel-bus backlog, and the
// admission queue. Persistence hardware uses it to model how congestion
// (e.g. a flooding consolidation thread) stretches its pipeline stalls.
func (d *Device) EstimatedWait() sim.Time {
	now := d.eng.Now()
	var sum sim.Time
	for _, t := range d.bankFreeAt {
		if t > now {
			sum += t - now
		}
	}
	wait := sum / sim.Time(len(d.bankFreeAt))
	if b := d.busFreeAt - now; b > wait {
		wait = b
	}
	return wait + sim.Time(len(d.waiting)-d.waitHead)*d.cfg.BusPerAccess
}

func (d *Device) drainWaiting() {
	for d.waitHead < len(d.waiting) && d.admissible(d.waiting[d.waitHead].write) {
		p := d.waiting[d.waitHead]
		d.waiting[d.waitHead] = pendingAccess{}
		d.waitHead++
		d.start(p)
	}
	// Under sustained backpressure the queue never drains, so slide the
	// live waiters to the front once the popped prefix is half the
	// backing; otherwise appends would grow it without bound.
	if d.waitHead > 0 && 2*d.waitHead >= len(d.waiting) {
		n := copy(d.waiting, d.waiting[d.waitHead:])
		clear(d.waiting[n:])
		d.waiting = d.waiting[:n]
		d.waitHead = 0
	}
}

// Controller routes physical line accesses to the DRAM or NVM device by
// address and tallies hybrid-memory traffic.
type Controller struct {
	DRAM *Device
	NVM  *Device
}

// NewController builds a controller over freshly configured DDR4 and PCM
// devices.
func NewController(eng *sim.Engine) *Controller {
	return &Controller{
		DRAM: NewDevice(eng, DDR4Config()),
		NVM:  NewDevice(eng, PCMConfig()),
	}
}

// Access routes one line access at physical address addr.
func (c *Controller) Access(write bool, addr uint64, done sim.Done) {
	if IsNVM(addr) {
		c.NVM.Access(write, addr, done)
		return
	}
	c.DRAM.Access(write, addr, done)
}

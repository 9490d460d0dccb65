//go:build go1.23

// Package workload provides the simulated programs that drive the
// machine: the paper's Table III micro-benchmarks (Random, Stream,
// Sparse, Quicksort, Recursive, Normal, Poisson), synthetic models of the
// application benchmarks (Gapbs_pr, G500_sssp, Ycsb_mem) calibrated to
// the stack-usage characteristics the paper reports, and SPEC CPU
// 2017-like access-pattern models used in the tracking-overhead study.
//
// Programs are pull-based op generators: the kernel (or the trace
// capturer) repeatedly calls Next and executes the returned operation.
// Generators are written as ordinary Go code — including real recursion
// for Quicksort — running as a coroutine (iter.Pull) on the consumer's
// thread. The body fills a fixed batch of ops and yields it; Next reads
// the whole batch before the body resumes and refills the same buffer,
// so the body never runs ahead of the consumer.
package workload

import (
	"iter"

	"prosper/internal/sim"
)

// Kind discriminates operation types.
type Kind uint8

// Operation kinds.
const (
	Compute Kind = iota // advance time by Cycles
	Load                // read Size bytes at Addr
	Store               // write Size bytes at Addr
	End                 // program finished
)

// Op is one operation of a simulated instruction stream. SP carries the
// program's stack pointer after the operation, which the tracing and
// SP-awareness analyses consume.
type Op struct {
	Kind   Kind
	Addr   uint64
	Size   int32
	Cycles sim.Time
	SP     uint64
}

// Context tells a program where its segments live.
type Context struct {
	StackHi      uint64 // initial stack pointer (exclusive top of stack)
	StackReserve uint64 // maximum stack depth available below StackHi
	HeapLo       uint64 // base of the program's heap arena
	HeapSize     uint64
	Seed         uint64
}

// Program is a runnable instruction stream.
type Program interface {
	Name() string
	// Start initializes the program; it must be called exactly once
	// before the first Next.
	Start(ctx Context)
	// Next returns the next operation. After returning End it keeps
	// returning End.
	Next() Op
	// Close releases the generator's resources. Safe to call at any time
	// after Start; Next must not be called afterwards.
	Close()
}

// Checkpointable is implemented by programs whose execution position can
// be saved into a process checkpoint and restored after a crash.
type Checkpointable interface {
	Snapshot() []byte
	Restore([]byte)
}

// stoppedErr is the sentinel used to unwind a generator body on Close.
type stoppedErr struct{}

func (stoppedErr) Error() string { return "workload: generator stopped" }

// batch is the number of ops the body yields to the consumer per switch.
// Each program holds one buffer of this many ops (about 2.5 KB).
const batch = 64

// G is the helper state passed to generator bodies: it tracks the stack
// pointer, owns the deterministic RNG, and provides emit primitives.
type G struct {
	Ctx Context
	Rng *sim.Rand

	sp    uint64
	buf   []Op // the batch being filled
	yield func([]Op) bool
}

// SP returns the current simulated stack pointer.
func (g *G) SP() uint64 { return g.sp }

func (g *G) send(op Op) {
	op.SP = g.sp
	g.buf = append(g.buf, op)
	if len(g.buf) == batch {
		g.flush()
	}
}

// flush yields the ops emitted so far to the consumer, which has read
// them all when the body resumes, so the buffer is then refilled. After
// Close, yield returns false and the panic unwinds the body.
func (g *G) flush() {
	if len(g.buf) == 0 {
		return
	}
	if !g.yield(g.buf) {
		panic(stoppedErr{})
	}
	g.buf = g.buf[:0]
}

// Compute advances simulated time.
func (g *G) Compute(cycles sim.Time) { g.send(Op{Kind: Compute, Cycles: cycles}) }

// Load reads size bytes at addr.
func (g *G) Load(addr uint64, size int32) { g.send(Op{Kind: Load, Addr: addr, Size: size}) }

// Store writes size bytes at addr.
func (g *G) Store(addr uint64, size int32) { g.send(Op{Kind: Store, Addr: addr, Size: size}) }

// Call opens a stack frame of frameBytes (8-byte aligned): it pushes the
// return address and returns the new frame base (== new SP).
func (g *G) Call(frameBytes uint64) uint64 {
	if frameBytes < 8 {
		frameBytes = 8
	}
	g.sp -= frameBytes
	// Return address push at the top of the new frame.
	g.Store(g.sp+frameBytes-8, 8)
	return g.sp
}

// Ret closes the current frame of frameBytes: it loads the return address
// and pops.
func (g *G) Ret(frameBytes uint64) {
	if frameBytes < 8 {
		frameBytes = 8
	}
	g.Load(g.sp+frameBytes-8, 8)
	g.sp += frameBytes
}

// StoreLocal writes size bytes at offset off in the current frame.
func (g *G) StoreLocal(off uint64, size int32) { g.Store(g.sp+off, size) }

// LoadLocal reads size bytes at offset off in the current frame.
func (g *G) LoadLocal(off uint64, size int32) { g.Load(g.sp+off, size) }

// genProgram adapts a generator body into a Program. The body runs as a
// coroutine; when it returns, the program emits End forever.
type genProgram struct {
	name string
	body func(*G)
	next func() ([]Op, bool)
	stop func()
	ops  []Op // the rest of the batch yielded last
}

// NewProgram builds a Program from a generator body. The body receives a
// ready G and emits operations until it returns (or forever for steady-
// state workloads, which are terminated by Close).
func NewProgram(name string, body func(*G)) Program {
	return &genProgram{name: name, body: body}
}

func (p *genProgram) Name() string { return p.name }

func (p *genProgram) Start(ctx Context) {
	if p.next != nil {
		panic("workload: Start called twice")
	}
	g := &G{
		Ctx: ctx,
		Rng: sim.NewRand(ctx.Seed),
		sp:  ctx.StackHi,
		buf: make([]Op, 0, batch),
	}
	p.next, p.stop = iter.Pull(func(yield func([]Op) bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(stoppedErr); !ok {
					panic(r)
				}
			}
		}()
		g.yield = yield
		p.body(g)
		g.flush()
	})
}

// Next returns the next op of the batch it holds and resumes the body
// for another batch when that one is used up. A panic in the body comes
// out of Next, on the caller's goroutine.
func (p *genProgram) Next() Op {
	if len(p.ops) == 0 {
		ops, ok := p.next()
		if !ok {
			return Op{Kind: End}
		}
		p.ops = ops
	}
	op := p.ops[0]
	p.ops = p.ops[1:]
	return op
}

func (p *genProgram) Close() {
	if p.stop != nil {
		p.stop()
	}
	p.ops = nil
}

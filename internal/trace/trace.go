// Package trace provides memory-access trace capture and the analyses the
// paper's motivation section performs on Pin/SniP traces: stack-vs-heap
// operation breakdowns (Fig 1), stack writes beyond the interval-final SP
// (Fig 2), and per-granularity checkpoint copy sizes (Fig 4).
package trace

import (
	"prosper/internal/sim"
	"prosper/internal/workload"
)

// Record is one traced memory operation with its virtual time and the
// stack pointer after the operation.
type Record struct {
	Time  sim.Time // approximate cycle of the op in the traced run
	Addr  uint64
	SP    uint64
	Size  int32
	Write bool
	Stack bool // address within the traced stack range
}

// Trace is a captured access stream plus the segment geometry needed to
// interpret it.
type Trace struct {
	StackHi uint64
	StackLo uint64 // lowest SP observed (maximum stack extent)
	Records []Record
}

// CaptureConfig bounds a capture run.
type CaptureConfig struct {
	MaxOps int // stop after this many memory operations
	Ctx    workload.Context
}

// opCost is the nominal virtual time charged per memory op.
const opCost = sim.Time(1)

// DefaultCaptureConfig captures 200k memory operations on a standard
// context.
func DefaultCaptureConfig() CaptureConfig {
	return CaptureConfig{
		MaxOps: 200_000,
		Ctx: workload.Context{
			StackHi:      0x7fff_f000,
			StackReserve: 8 << 20,
			HeapLo:       0x1000_0000,
			HeapSize:     256 << 20,
			Seed:         1,
		},
	}
}

// Capture runs the program standalone (no machine) and records its memory
// operations, modelling virtual time from compute cycles and a nominal
// per-op cost — the same role Pin/SniP tracing plays for the paper.
func Capture(p workload.Program, cfg CaptureConfig) *Trace {
	p.Start(cfg.Ctx)
	defer p.Close()
	tr := &Trace{StackHi: cfg.Ctx.StackHi, StackLo: cfg.Ctx.StackHi}
	var now sim.Time
	stackLo := cfg.Ctx.StackHi - cfg.Ctx.StackReserve
	for len(tr.Records) < cfg.MaxOps {
		op := p.Next()
		switch op.Kind {
		case workload.End:
			return tr
		case workload.Compute:
			now += op.Cycles
		case workload.Load, workload.Store:
			now += opCost
			isStack := op.Addr >= stackLo && op.Addr < cfg.Ctx.StackHi
			if op.SP != 0 && op.SP < tr.StackLo {
				tr.StackLo = op.SP
			}
			tr.Records = append(tr.Records, Record{
				Time:  now,
				Addr:  op.Addr,
				SP:    op.SP,
				Size:  op.Size,
				Write: op.Kind == workload.Store,
				Stack: isStack,
			})
		}
	}
	return tr
}

// Duration returns the virtual time covered by the trace.
func (t *Trace) Duration() sim.Time {
	if len(t.Records) == 0 {
		return 0
	}
	return t.Records[len(t.Records)-1].Time
}

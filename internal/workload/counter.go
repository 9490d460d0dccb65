package workload

import (
	"encoding/binary"

	"prosper/internal/sim"
)

// CounterProgram is a finite, checkpointable workload used by the crash /
// recovery tests and the quickstart example: it increments a counter,
// writing the value into both a stack slot and a rotating heap log. Its
// execution position (the iteration index) can be snapshotted into a
// process checkpoint and restored after a crash, letting the process
// resume from the last checkpoint rather than from scratch.
type CounterProgram struct {
	Iterations int
	PerIterOps int

	ctx  Context
	i    int
	step int
	sp   uint64
}

// NewCounter builds a counter workload running for iterations iterations.
func NewCounter(iterations int) *CounterProgram {
	if iterations <= 0 {
		iterations = 1000
	}
	return &CounterProgram{Iterations: iterations, PerIterOps: 4}
}

// Name implements Program.
func (c *CounterProgram) Name() string { return "counter" }

// Start implements Program.
func (c *CounterProgram) Start(ctx Context) {
	c.ctx = ctx
	c.sp = ctx.StackHi - 4096 // one fixed frame
}

// Next implements Program as an explicit state machine (no coroutine), so
// the execution position is exactly (i, step) and trivially restorable.
func (c *CounterProgram) Next() Op {
	if c.i >= c.Iterations {
		return Op{Kind: End}
	}
	op := Op{SP: c.sp}
	switch c.step {
	case 0: // write counter to a stack slot (slot varies over a small window)
		op.Kind = Store
		op.Addr = c.sp + uint64(c.i%64)*8
		op.Size = 8
	case 1: // append to heap log
		op.Kind = Store
		op.Addr = c.ctx.HeapLo + uint64(c.i%1024)*8
		op.Size = 8
	case 2: // read back the stack slot
		op.Kind = Load
		op.Addr = c.sp + uint64(c.i%64)*8
		op.Size = 8
	default:
		op.Kind = Compute
		op.Cycles = sim.Time(50)
	}
	c.step++
	if c.step >= c.PerIterOps {
		c.step = 0
		c.i++
	}
	return op
}

// Close implements Program.
func (c *CounterProgram) Close() {}

// Progress returns the current iteration, for tests and demos.
func (c *CounterProgram) Progress() int { return c.i }

// Snapshot implements Checkpointable.
func (c *CounterProgram) Snapshot() []byte {
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint64(buf, uint64(c.i))
	binary.LittleEndian.PutUint64(buf[8:], uint64(c.step))
	return buf
}

// Restore implements Checkpointable.
func (c *CounterProgram) Restore(b []byte) {
	if len(b) < 16 {
		return
	}
	c.i = int(binary.LittleEndian.Uint64(b))
	c.step = int(binary.LittleEndian.Uint64(b[8:]))
}

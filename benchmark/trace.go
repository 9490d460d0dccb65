package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"prosper/internal/kernel"
	"prosper/internal/machine"
	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/workload"
)

// layerAcct accumulates the traced invocation's per-layer accounting
// across every run it steps. All of it is observed from outside the
// simulator: engine steps, the wrapped Program.Next and Mechanism calls,
// the kernel's stats dump, and timed public calls after each run.
type layerAcct struct {
	// Engine steps, attributed to the component that owns each event.
	// The clock is read once per step, so the per-component times
	// telescope: they sum to the stepping loops' wall time minus the few
	// deadline events the loop schedules for itself.
	ns      [sim.NumComponents]int64
	events  [sim.NumComponents]uint64
	steps   uint64
	pending uint64 // sum of Engine.Pending() before each step
	loopNS  int64  // wall time of the stepping loops, read around them

	nextNS    int64 // inside the wrapped Program.Next
	nextCalls uint64
	storeNS   int64 // inside the wrapped Mechanism.OnStore
	stores    uint64
	// epochNS is host time from Mechanism.Checkpoint to its done
	// callback, per mechanism name.
	epochNS map[string][]float64

	userOps uint64 // whole-run user ops of the stepped runs
	dumps   dumpSet

	crashImageNS []float64
	fsckNS       []float64
}

func newLayerAcct() *layerAcct {
	return &layerAcct{epochNS: map[string][]float64{}}
}

// runFor is kernel.RunFor with every event stepped individually. A
// deadline event ends the loop; events scheduled at the deadline after
// it are then stepped one at a time until the earliest pending event
// lies beyond the deadline, exactly RunUntil's stopping rule.
func (a *layerAcct) runFor(k *kernel.Kernel, prof *sim.Profile, d sim.Time) {
	eng := k.Eng
	deadline := eng.Now() + d
	stop := false
	eng.At(sim.CompSim, deadline, func() { stop = true })
	prev := prof.Snapshot().Counts
	step := func(last *int64) bool {
		pending := eng.Pending()
		eng.Step()
		counts := prof.Snapshot().Counts
		c := sim.CompOther
		for i := range counts {
			if counts[i] != prev[i] {
				c = sim.Component(i)
				break
			}
		}
		prev = counts
		t := now()
		dt := t - *last
		*last = t
		if stop {
			stop = false
			return false
		}
		a.ns[c] += dt
		a.events[c]++
		a.steps++
		a.pending += uint64(pending)
		return true
	}
	start := now()
	last := start
	for step(&last) {
	}
	for {
		keys := eng.PendingKeys()
		if len(keys) == 0 || keys[0].When > deadline {
			break
		}
		step(&last)
	}
	eng.RunUntil(deadline)
	a.loopNS += now() - start
}

// afterRun records what the stepped run's layers counted, then times a
// crash image of the final state and an fsck of that image.
func (a *layerAcct) afterRun(k *kernel.Kernel) error {
	for _, p := range k.Procs() {
		for _, t := range p.Threads {
			a.userOps += t.UserOps
		}
	}
	var buf bytes.Buffer
	if err := k.DumpStatsJSON(&buf); err != nil {
		return fmt.Errorf("stats dump: %w", err)
	}
	dump := map[string]uint64{}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		return fmt.Errorf("stats dump: %w", err)
	}
	a.dumps = append(a.dumps, dump)

	t0 := now()
	img := k.Mach.CrashImage()
	t1 := now()
	rep := kernel.Fsck(img)
	t2 := now()
	a.crashImageNS = append(a.crashImageNS, float64(t1-t0))
	a.fsckNS = append(a.fsckNS, float64(t2-t1))
	if !rep.OK() {
		return fmt.Errorf("fsck of the final crash image: %v", rep.Problems)
	}
	return nil
}

// wrapProgram makes every program the run spawns a timedProgram.
func (a *layerAcct) wrapProgram(prog func() workload.Program) func() workload.Program {
	return func() workload.Program { return &timedProgram{Program: prog(), acct: a} }
}

// wrapFactory makes every mechanism the run builds a timedMech. A nil
// factory stays nil: the kernel then installs its own no-op mechanism.
func (a *layerAcct) wrapFactory(f persist.Factory) persist.Factory {
	if f == nil {
		return nil
	}
	return func() persist.Mechanism { return &timedMech{Mechanism: f(), acct: a} }
}

// timedProgram times Program.Next. The kernel saves the execution
// position of checkpointable programs, so the shim forwards that too; a
// nil snapshot is what the kernel records for programs without one.
type timedProgram struct {
	workload.Program
	acct *layerAcct
}

func (p *timedProgram) Next() workload.Op {
	t := now()
	o := p.Program.Next()
	p.acct.nextNS += now() - t
	p.acct.nextCalls++
	return o
}

func (p *timedProgram) Snapshot() []byte {
	if c, ok := p.Program.(workload.Checkpointable); ok {
		return c.Snapshot()
	}
	return nil
}

func (p *timedProgram) Restore(b []byte) {
	if c, ok := p.Program.(workload.Checkpointable); ok {
		c.Restore(b)
	}
}

// timedMech times Mechanism.OnStore and each checkpoint epoch from
// Checkpoint to its done callback. Stepped runs are never snapshotted,
// so it does not forward persist.Snapshotter; the kernel then leaves the
// mechanism's continuation tokens without resume keys, which only a
// snapshot reads.
type timedMech struct {
	persist.Mechanism
	acct *layerAcct
}

func (m *timedMech) OnStore(core *machine.Core, vaddr, paddr uint64, size int) sim.Time {
	t := now()
	stall := m.Mechanism.OnStore(core, vaddr, paddr, size)
	m.acct.storeNS += now() - t
	m.acct.stores++
	return stall
}

func (m *timedMech) Checkpoint(done func(persist.Result)) {
	t := now()
	name := m.Name()
	m.Mechanism.Checkpoint(func(r persist.Result) {
		m.acct.epochNS[name] = append(m.acct.epochNS[name], float64(now()-t))
		done(r)
	})
}

// Detach forwards the hook Process.Shutdown uses to stop a mechanism's
// background ticker.
func (m *timedMech) Detach() {
	if d, ok := m.Mechanism.(interface{ Detach() }); ok {
		d.Detach()
	}
}

// dumpSet holds the kernel stats dumps of the stepped runs, one flat
// name → value map per run.
type dumpSet []map[string]uint64

// values returns, across runs, every value whose name has the prefix and
// suffix.
func (ds dumpSet) values(prefix, suffix string) []float64 {
	var out []float64
	for _, d := range ds {
		for k, v := range d {
			if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
				out = append(out, float64(v))
			}
		}
	}
	sort.Float64s(out)
	return out
}

func (ds dumpSet) sum(prefix, suffix string) float64 {
	var s float64
	for _, v := range ds.values(prefix, suffix) {
		s += v
	}
	return s
}

func (ds dumpSet) max(prefix, suffix string) float64 {
	vs := ds.values(prefix, suffix)
	if len(vs) == 0 {
		return 0
	}
	return vs[len(vs)-1]
}

func (ds dumpSet) median(prefix, suffix string) float64 {
	return median(ds.values(prefix, suffix))
}

package kernel

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"

	"prosper/internal/persist"
	"prosper/internal/stats"
)

// DumpStats writes every counter the simulated system maintains — kernel,
// cores, cache levels, memory devices, trackers, per-process checkpoint
// statistics and each segment's persistence mechanism — as "name value"
// lines in eachMetric order, the equivalent of gem5's stats.txt dump
// that the paper's artifact parses.
func (k *Kernel) DumpStats(w io.Writer) {
	bw := bufio.NewWriter(w)
	k.eachMetric(func(n string, v uint64) {
		fmt.Fprintf(bw, "%s %d\n", n, v)
	})
	bw.Flush()
}

// DumpStatsJSON writes the same metrics as DumpStats as one flat JSON
// object whose keys appear in exactly the text dump's order (the
// serializer is hand-rolled so key order, and therefore the bytes, stay
// deterministic).
func (k *Kernel) DumpStatsJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{")
	sep := ""
	k.eachMetric(func(n string, v uint64) {
		fmt.Fprintf(bw, "%s\n%s:%d", sep, strconv.Quote(n), v)
		sep = ","
	})
	bw.WriteString("\n}\n")
	return bw.Flush()
}

// eachMetric visits every metric as a fully-qualified dotted name, in a
// fixed section order: kernel, each core with its TLB, L1D, L2, L3,
// DRAM, NVM, machine, trackers, processes in spawn order, and last the
// engine's own clock and event count. Within a section counter names
// sort, then histograms follow in sorted name order, each expanded to
// integer scalars so the output stays byte-deterministic.
func (k *Kernel) eachMetric(emit func(name string, v uint64)) {
	m := k.Mach
	section := func(prefix string, c *stats.Counters, hs *stats.Histograms) {
		var names []string
		if c != nil {
			names = c.Names()
		}
		sort.Strings(names)
		for _, n := range names {
			emit(prefix+n, c.Get(n))
		}
		names = hs.Names()
		sort.Strings(names)
		for _, n := range names {
			h := hs.Get(n)
			emit(prefix+n+".count", h.Count())
			emit(prefix+n+".sum", h.Sum())
			emit(prefix+n+".min", h.Min())
			emit(prefix+n+".max", h.Max())
			emit(prefix+n+".p50", h.Quantile(0.50))
			emit(prefix+n+".p95", h.Quantile(0.95))
			emit(prefix+n+".p99", h.Quantile(0.99))
		}
	}
	section("kernel.", k.Counters, nil)
	for i, cs := range k.cores {
		section(fmt.Sprintf("core%d.", i), cs.core.Counters, nil)
		// TLB counter keys are fully qualified ("core0.tlb.hits"); its
		// histogram keys are not.
		section("", cs.core.TLB.Counters, nil)
		section(fmt.Sprintf("core%d.tlb.", i), nil, cs.core.TLB.Histograms)
	}
	for i, c := range m.Hier.L1D {
		section(fmt.Sprintf("l1d%d.", i), c.Counters, c.Histograms)
	}
	for i, c := range m.Hier.L2 {
		section(fmt.Sprintf("l2_%d.", i), c.Counters, c.Histograms)
	}
	section("l3.", m.Hier.L3.Counters, m.Hier.L3.Histograms)
	section("dram.", m.Ctl.DRAM.Counters, m.Ctl.DRAM.Histograms)
	section("nvm.", m.Ctl.NVM.Counters, m.Ctl.NVM.Histograms)
	section("machine.", m.Counters, nil)
	for i, tr := range k.Trackers {
		section(fmt.Sprintf("tracker%d.", i), tr.Counters, tr.Histograms)
	}
	// A process section holds its sorted counters, the checkpoint
	// scalars, per-thread user accounting and stack mechanism counters,
	// the heap mechanism's counters, then the pause distribution and its
	// per-cause stall attribution.
	for _, p := range k.procs {
		pre := "proc." + p.Name + "."
		section(pre, p.Counters, nil)
		emit(pre+"checkpoints", p.CheckpointCount)
		emit(pre+"checkpoint_bytes", p.CheckpointBytes)
		emit(pre+"checkpoint_cycles", p.Counters.Get("proc.ckpt_cycles"))
		for _, t := range p.Threads {
			emit(fmt.Sprintf("%sthread%d.user_ops", pre, t.TID), t.UserOps)
			emit(fmt.Sprintf("%sthread%d.user_cycles", pre, t.TID), t.UserCycles)
			section(fmt.Sprintf("%sthread%d.stack.", pre, t.TID), t.mech.Stats(), nil)
		}
		if p.heapMech != nil {
			section(pre+"heap.", p.heapMech.Stats(), nil)
		}
		pauses := stats.NewHistogram()
		var causes [persist.NumCauses]uint64
		for _, ep := range p.EpochPauses {
			pauses.Observe(uint64(ep.Pause))
			for c, v := range ep.Causes {
				causes[c] += v
			}
		}
		emit(pre+"pause.count", pauses.Count())
		emit(pre+"pause.cycles", pauses.Sum())
		emit(pre+"pause.max", pauses.Max())
		emit(pre+"pause.p50", pauses.Quantile(0.50))
		emit(pre+"pause.p95", pauses.Quantile(0.95))
		emit(pre+"pause.p99", pauses.Quantile(0.99))
		for c, v := range causes {
			emit(pre+"pause."+persist.Cause(c).String(), v)
		}
	}
	emit("sim.cycles", uint64(k.Eng.Now()))
	emit("sim.events", k.Events())
}

// Command prosper-run executes one workload under a chosen combination
// of persistence mechanisms on the simulated machine and reports the run
// statistics — the general-purpose driver for exploring configurations
// outside the fixed experiment harnesses.
//
// Usage:
//
//	prosper-run -workload gapbs_pr -stack prosper -heap ssp \
//	            -interval 200 -duration 2000 -stats
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"prosper/internal/kernel"
	"prosper/internal/machine"
	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/workload"
)

// factory resolves a -stack/-heap name through persist.ByName, except
// that "none" is nil (the kernel's default: a None heap mechanism would
// add checkpoint steps) and SSP takes the -consolidation interval.
func factory(name string, consolidationUS int) (persist.Factory, bool) {
	switch name {
	case "", "none":
		return nil, true
	case "ssp":
		return persist.NewSSP(persist.SSPConfig{ConsolidationInterval: sim.Time(consolidationUS) * sim.Microsecond}), true
	}
	return persist.ByName(name)
}

func workloadByName(name string, arg int) workload.Program {
	switch name {
	case "gapbs_pr":
		return workload.NewApp(workload.GapbsPR())
	case "g500_sssp":
		return workload.NewApp(workload.G500SSSP())
	case "ycsb_mem":
		return workload.NewApp(workload.YcsbMem())
	case "mcf":
		return workload.NewApp(workload.SpecMCF())
	case "omnetpp":
		return workload.NewApp(workload.SpecOmnetpp())
	case "perlbench":
		return workload.NewApp(workload.SpecPerlbench())
	case "leela":
		return workload.NewApp(workload.SpecLeela())
	case "random":
		return workload.NewRandom(workload.MicroParams{})
	case "stream":
		return workload.NewStream(workload.MicroParams{})
	case "sparse":
		return workload.NewSparse(workload.MicroParams{})
	case "quicksort":
		return workload.NewQuicksort(arg)
	case "recursive":
		return workload.NewRecursive(arg)
	case "normal":
		return workload.NewNormal()
	case "poisson":
		return workload.NewPoisson()
	case "counter":
		return workload.NewCounter(arg)
	default:
		return nil
	}
}

// usesTracker reports whether the named mechanism programs the per-core
// Prosper tracker; the stack and the heap cannot both do so.
func usesTracker(name string) bool { return name == "prosper" || name == "prosper-adaptive" }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("prosper-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "gapbs_pr", "workload name")
	wlArg := fs.Int("arg", 4096, "workload parameter (elements/depth/iterations)")
	stack := fs.String("stack", "prosper", "stack mechanism: none|prosper|prosper-adaptive|dirtybit|writeprotect|romulus|ssp")
	heap := fs.String("heap", "none", "heap mechanism (same choices; not Prosper when the stack uses Prosper)")
	cons := fs.Int("consolidation", 10, "SSP consolidation interval (µs)")
	intervalUS := fs.Int("interval", 200, "checkpoint interval (simulated µs; 0 disables)")
	durationUS := fs.Int("duration", 2000, "run duration (simulated µs)")
	threads := fs.Int("threads", 1, "threads (one workload instance each)")
	cores := fs.Int("cores", 1, "simulated cores")
	seed := fs.Uint64("seed", 1, "workload seed")
	dumpStats := fs.Bool("stats", false, "dump all simulator counters at the end")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	stackF, ok := factory(*stack, *cons)
	if !ok {
		fmt.Fprintf(stderr, "unknown stack mechanism %q\n", *stack)
		return 2
	}
	heapF, ok := factory(*heap, *cons)
	if !ok {
		fmt.Fprintf(stderr, "unknown heap mechanism %q\n", *heap)
		return 2
	}
	if *threads < 1 {
		fmt.Fprintf(stderr, "-threads must be at least 1, got %d\n", *threads)
		return 2
	}
	if *cores < 1 {
		fmt.Fprintf(stderr, "-cores must be at least 1, got %d\n", *cores)
		return 2
	}
	if usesTracker(*stack) && usesTracker(*heap) {
		fmt.Fprintf(stderr, "stack %q and heap %q cannot share the Prosper tracker\n", *stack, *heap)
		return 2
	}

	k := kernel.New(kernel.Config{
		Machine: machine.Config{Cores: *cores},
		Quantum: 100 * sim.Microsecond,
	})
	progs := make([]workload.Program, *threads)
	for i := range progs {
		progs[i] = workloadByName(*wl, *wlArg)
		if progs[i] == nil {
			fmt.Fprintf(stderr, "unknown workload %q\n", *wl)
			return 2
		}
	}
	p := k.Spawn(kernel.ProcessConfig{
		Name:               *wl,
		StackMech:          stackF,
		HeapMech:           heapF,
		CheckpointInterval: sim.Time(*intervalUS) * sim.Microsecond,
		PremapHeap:         true,
		Seed:               *seed,
	}, progs...)

	k.RunFor(sim.Time(*durationUS) * sim.Microsecond)
	p.Shutdown()

	fmt.Fprintf(stdout, "workload           %s x%d (stack=%s heap=%s)\n", *wl, *threads, *stack, *heap)
	fmt.Fprintf(stdout, "simulated          %d µs (%d cycles, %d events)\n",
		*durationUS, k.Eng.Now(), k.Eng.Fired())
	var ops, cycles uint64
	for _, t := range p.Threads {
		ops += t.UserOps
		cycles += t.UserCycles
	}
	fmt.Fprintf(stdout, "user ops           %d (IPC %.4f)\n", ops, float64(ops)/float64(cycles+1))
	fmt.Fprintf(stdout, "checkpoints        %d\n", p.CheckpointCount)
	fmt.Fprintf(stdout, "persisted bytes    %d (stack %d)\n", p.CheckpointBytes, p.StackCkptBytes)
	if p.CheckpointCount > 0 {
		fmt.Fprintf(stdout, "mean ckpt cycles   %d\n", p.Counters.Get("proc.ckpt_cycles")/p.CheckpointCount)
	}
	if rep := kernel.Fsck(k.Mach.Storage); !rep.OK() {
		fmt.Fprintln(stdout, "FSCK PROBLEMS:", rep.Problems)
		return 1
	}
	fmt.Fprintln(stdout, "fsck               clean")

	if *dumpStats {
		fmt.Fprintln(stdout)
		k.DumpStats(stdout)
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

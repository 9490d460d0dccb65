package sim

// Component identifies which simulated component owns a scheduled event:
// the architectural subsystem whose code the event's callback runs. Every
// Schedule/At/Thunk/Bind/NewTicker call site declares an owner, so the
// dispatch loop can attribute host cost per component (see Profile).
//
// The ID is advisory metadata: it never participates in event ordering,
// and an incorrect tag can skew a profile but cannot change a simulated
// cycle.
//
// Packages map onto components mostly one-to-one (mem, cache, kernel,
// prosper, persist). internal/machine implements several architectural
// components at once, so its call sites tag by role instead of by
// package: page-walk and page-fault continuations are CompVM (the
// address-translation hardware), pipeline/store-buffer continuations are
// CompWorkload (executing the program's instruction stream), and the
// checkpoint copy/fan engines are CompPersist (they move data on behalf
// of persistence mechanisms). CompSim is simulator infrastructure — the
// engine itself, runner plumbing, and telemetry sampling.
type Component uint8

const (
	CompSim Component = iota
	CompMem
	CompCache
	CompVM
	CompKernel
	CompProsper
	CompPersist
	CompWorkload
	CompOther

	// NumComponents sizes per-component accounting arrays.
	NumComponents = int(CompOther) + 1
)

var componentNames = [NumComponents]string{
	CompSim:      "sim",
	CompMem:      "mem",
	CompCache:    "cache",
	CompVM:       "vm",
	CompKernel:   "kernel",
	CompProsper:  "prosper",
	CompPersist:  "persist",
	CompWorkload: "workload",
	CompOther:    "other",
}

// String returns the component's stable lowercase name. These names are
// keys of the quick-suite golden (internal/runner's event_counts) and of
// the benchmark's <component>.* metrics; renaming one is a breaking
// change.
func (c Component) String() string {
	if int(c) < NumComponents {
		return componentNames[c]
	}
	return "other"
}

// Components returns every component in declaration order. Callers that
// render per-component tables iterate this instead of a map so output
// order is deterministic.
func Components() [NumComponents]Component {
	var out [NumComponents]Component
	for i := range out {
		out[i] = Component(i)
	}
	return out
}

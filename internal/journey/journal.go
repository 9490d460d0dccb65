package journey

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// FormatVersion is the journal format version emitted in the header
// line. Bump it on any incompatible change to the line schema;
// prosper-journey rejects versions it does not understand (exit 2), so
// stale tooling fails loudly instead of misreading cycles.
const FormatVersion = 1

// Journal collects one Recorder per run of an experiment plan. Like
// telemetry.Trace, it is the only cross-run piece of the subsystem: the
// runner's worker pool creates recorders from multiple goroutines, but
// creation happens in plan order (inside runPlan, before workers fork),
// and each recorder is then touched only by its own run. WriteJSONL
// iterates recorders in creation order, so the serialized journal is
// byte-identical at any -parallel worker count.
type Journal struct {
	//prosperlint:ignore concurrency journal lane allocation across parallel runs, mirroring telemetry.Trace; each Recorder is single-run-local
	mu        sync.Mutex
	recorders []*Recorder
}

// NewJournal returns an empty journal.
func NewJournal() *Journal { return &Journal{} }

// NewRecorder registers a recorder for one run. Call in plan order (the
// runner does this when materializing specs). A nil journal or a zero
// rate returns nil — tracing off for that run.
func (jl *Journal) NewRecorder(name string, rate, seed uint64) *Recorder {
	if jl == nil {
		return nil
	}
	r := NewRecorder(name, rate, seed)
	if r == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	jl.recorders = append(jl.recorders, r)
	return r
}

// Recorders returns the registered recorders in creation (plan) order.
func (jl *Journal) Recorders() []*Recorder {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.recorders
}

// WriteJSONL serializes the journal: one format-header line, then per
// recorder a run-header line followed by one line per finished journey
// in JID order. All encoding is explicit fmt/strconv (no maps, no
// encoding/json struct-order surprises), so output is byte-deterministic.
func (jl *Journal) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"journey_journal\":%d}\n", FormatVersion)
	for _, r := range jl.Recorders() {
		if err := r.writeJSONL(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func (r *Recorder) writeJSONL(bw *bufio.Writer) error {
	accesses, sampled, finished := r.Counts()
	fmt.Fprintf(bw, "{\"run\":%s,\"rate\":%d,\"seed\":%d,\"accesses\":%d,\"sampled\":%d,\"finished\":%d}\n",
		strconv.Quote(r.name), r.rate, r.seed, accesses, sampled, finished)
	for _, j := range r.journeys {
		if !j.finished {
			continue // still in flight when the run ended; counted via sampled-finished
		}
		if err := writeJourney(bw, j); err != nil {
			return err
		}
	}
	return nil
}

func writeJourney(bw *bufio.Writer, j *Journey) error {
	kind := "load"
	if j.Write {
		kind = "store"
	}
	fmt.Fprintf(bw, "{\"jid\":%d,\"seq\":%d,\"kind\":%q,\"vaddr\":%d,\"size\":%d,\"start\":%d,\"end\":%d,\"latency\":%d,\"stages\":[",
		j.JID, j.Seq, kind, j.VAddr, j.Size, j.Start, j.End, j.Latency())
	for i, sp := range j.Spans {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "{\"stage\":%q,\"cause\":%q,\"enter\":%d,\"exit\":%d}",
			sp.Stage.String(), sp.Cause.String(), sp.Enter, sp.Exit)
	}
	bw.WriteString("],\"vec\":{")
	first := true
	for s := 0; s < NumStages; s++ {
		if j.Vec[s] == 0 {
			continue
		}
		if !first {
			bw.WriteByte(',')
		}
		first = false
		fmt.Fprintf(bw, "%q:%d", Stage(s).String(), j.Vec[s])
	}
	bw.WriteString("}}\n")
	return nil
}

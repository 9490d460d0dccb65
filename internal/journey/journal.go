package journey

import (
	"bufio"
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
// in JID order. Each line is appended into one reused buffer with
// strconv (no maps, no encoding/json struct-order surprises, no
// per-journey allocation), so output is byte-deterministic.
func (jl *Journal) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	buf := append(appendInt(nil, `{"journey_journal":`, FormatVersion), "}\n"...)
	bw.Write(buf)
	for _, r := range jl.Recorders() {
		buf = r.appendHeader(buf[:0])
		bw.Write(buf)
		for _, j := range r.journeys {
			if !j.finished {
				continue // still in flight when the run ended; counted via sampled-finished
			}
			buf = appendJourney(buf[:0], j)
			bw.Write(buf)
		}
	}
	return bw.Flush()
}

func appendUint(b []byte, key string, v uint64) []byte {
	return strconv.AppendUint(append(b, key...), v, 10)
}

func appendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

func (r *Recorder) appendHeader(b []byte) []byte {
	accesses, sampled, finished := r.Counts()
	b = strconv.AppendQuote(append(b, `{"run":`...), r.name)
	b = appendUint(b, `,"rate":`, r.rate)
	b = appendUint(b, `,"seed":`, r.seed)
	b = appendUint(b, `,"accesses":`, accesses)
	b = appendUint(b, `,"sampled":`, sampled)
	b = appendUint(b, `,"finished":`, finished)
	return append(b, "}\n"...)
}

func appendJourney(b []byte, j *Journey) []byte {
	kind := "load"
	if j.Write {
		kind = "store"
	}
	b = appendUint(b, `{"jid":`, uint64(j.JID))
	b = appendUint(b, `,"seq":`, j.Seq)
	b = strconv.AppendQuote(append(b, `,"kind":`...), kind)
	b = appendUint(b, `,"vaddr":`, j.VAddr)
	b = appendInt(b, `,"size":`, int64(j.Size))
	b = appendInt(b, `,"start":`, j.Start)
	b = appendInt(b, `,"end":`, j.End)
	b = appendInt(b, `,"latency":`, j.Latency())
	b = append(b, `,"stages":[`...)
	for i, sp := range j.Spans {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(append(b, `{"stage":`...), sp.Stage.String())
		b = strconv.AppendQuote(append(b, `,"cause":`...), sp.Cause.String())
		b = appendInt(b, `,"enter":`, sp.Enter)
		b = appendInt(b, `,"exit":`, sp.Exit)
		b = append(b, '}')
	}
	b = append(b, `],"vec":{`...)
	first := true
	for s := 0; s < NumStages; s++ {
		if j.Vec[s] == 0 {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = appendInt(strconv.AppendQuote(b, Stage(s).String()), ":", j.Vec[s])
	}
	return append(b, "}}\n"...)
}

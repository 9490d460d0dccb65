package journey

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"prosper/internal/sim"
)

// rawLine is the union of the three journal line shapes; the pointer
// fields discriminate which shape a line is.
type rawLine struct {
	Version *int    `json:"journey_journal"`
	Run     *string `json:"run"`
	JID     *uint32 `json:"jid"`

	Rate     uint64 `json:"rate"`
	Seed     uint64 `json:"seed"`
	Accesses uint64 `json:"accesses"`
	Sampled  uint64 `json:"sampled"`
	Finished uint64 `json:"finished"`

	Seq     uint64           `json:"seq"`
	Kind    string           `json:"kind"`
	VAddr   uint64           `json:"vaddr"`
	Size    int              `json:"size"`
	Start   sim.Time         `json:"start"`
	End     sim.Time         `json:"end"`
	Latency sim.Time         `json:"latency"`
	Stages  []rawSpan        `json:"stages"`
	Vec     map[string]int64 `json:"vec"`
}

type rawSpan struct {
	Stage string   `json:"stage"`
	Cause string   `json:"cause"`
	Enter sim.Time `json:"enter"`
	Exit  sim.Time `json:"exit"`
}

// Parse reads a journal written by WriteJSONL back into the recorder's
// own types: one *Recorder per run, each finished journey at its JID
// with its spans in journal order and its Vec recomputed by the same
// attribute sweep a live run uses. A journey still in flight when the
// run ended was never written; it returns as an empty unfinished slot,
// so Counts and WriteJSONL give back exactly what the writer wrote.
//
// Parse accepts only what a recorder could have written. Bad JSON, a
// missing or unsupported format header, unknown stage, cause or kind
// names, a journey line before any run header, a span outside its
// journey's [start, end], a stored vec that differs from the recomputed
// one, JIDs that do not strictly increase or exceed the run's sampled
// count, header counts that disagree with the run's lines, and more
// than maxInFlight unfinished journeys in a run are all errors
// (prosper-journey maps them to exit status 2).
//
// Journeys land in the recorders' storage blocks, so beyond decoding
// each line, parsing allocates per block, not per journey.
func Parse(r io.Reader) (*Journal, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var jl *Journal
	var cur *Recorder
	var hdr rawLine // cur's run header
	closeRun := func() error {
		if cur == nil {
			return nil
		}
		if err := cur.pad(hdr.Sampled, &hdr); err != nil {
			return fmt.Errorf("journey: run %q: %v", cur.name, err)
		}
		if _, _, got := cur.Counts(); got != hdr.Finished {
			return fmt.Errorf("journey: run %q: header says %d finished, journal has %d", cur.name, hdr.Finished, got)
		}
		return nil
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var raw rawLine
		if err := json.Unmarshal(line, &raw); err != nil {
			return nil, fmt.Errorf("journey: line %d: malformed JSON: %v", lineNo, err)
		}
		switch {
		case raw.Version != nil:
			if jl != nil {
				return nil, fmt.Errorf("journey: line %d: duplicate format header", lineNo)
			}
			if *raw.Version != FormatVersion {
				return nil, fmt.Errorf("journey: line %d: unsupported journal version %d (tool supports %d)",
					lineNo, *raw.Version, FormatVersion)
			}
			jl = NewJournal()
		case raw.Run != nil:
			if jl == nil {
				return nil, fmt.Errorf("journey: line %d: run header before format header", lineNo)
			}
			if err := closeRun(); err != nil {
				return nil, err
			}
			if raw.Rate == 0 || raw.Finished > raw.Sampled || raw.Sampled-raw.Finished > maxInFlight {
				return nil, fmt.Errorf("journey: line %d: run %q: no recorder writes rate %d, sampled %d, finished %d",
					lineNo, *raw.Run, raw.Rate, raw.Sampled, raw.Finished)
			}
			cur = jl.NewRecorder(*raw.Run, raw.Rate, raw.Seed)
			cur.seq = raw.Accesses
			hdr = raw
		case raw.JID != nil:
			if cur == nil {
				return nil, fmt.Errorf("journey: line %d: journey line before any run header", lineNo)
			}
			if err := cur.load(&raw, &hdr); err != nil {
				return nil, fmt.Errorf("journey: line %d: %v", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("journey: line %d: unrecognized line shape", lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journey: read: %v", err)
	}
	if jl == nil {
		return nil, fmt.Errorf("journey: missing format header (not a journey journal?)")
	}
	if err := closeRun(); err != nil {
		return nil, err
	}
	return jl, nil
}

// maxInFlight bounds the journeys a run header may leave unfinished
// (sampled - finished). A run ends with at most one journey per access
// the machine holds in flight — a few dozen per core — so a larger
// count is a corrupt header, refused before it sizes any allocation.
const maxInFlight = 1 << 16

// load rebuilds one finished journey line into its JID slot and checks
// it against what SegDone would have produced.
func (r *Recorder) load(raw, hdr *rawLine) error {
	jid := *raw.JID
	if int(jid) <= len(r.journeys) || uint64(jid) > hdr.Sampled {
		return fmt.Errorf("jid %d out of order or beyond the run's %d sampled", jid, hdr.Sampled)
	}
	j := Journey{
		JID: jid, Seq: raw.Seq, VAddr: raw.VAddr, Size: raw.Size,
		Start: raw.Start, End: raw.End, finished: true,
	}
	switch raw.Kind {
	case "load":
	case "store":
		j.Write = true
	default:
		return fmt.Errorf("jid %d: unknown kind %q", jid, raw.Kind)
	}
	if j.End < j.Start || raw.Latency != j.Latency() {
		return fmt.Errorf("jid %d: latency %d for [%d, %d]", jid, raw.Latency, j.Start, j.End)
	}
	spans := r.scratch()
	for _, rs := range raw.Stages {
		st, ok := StageFromName(rs.Stage)
		if !ok {
			return fmt.Errorf("jid %d: unknown stage %q", jid, rs.Stage)
		}
		ca, ok := CauseFromName(rs.Cause)
		if !ok {
			return fmt.Errorf("jid %d: unknown cause %q", jid, rs.Cause)
		}
		if rs.Exit < rs.Enter || rs.Enter < j.Start || rs.Exit > j.End {
			return fmt.Errorf("jid %d: span %s [%d,%d] outside journey [%d,%d]",
				jid, rs.Stage, rs.Enter, rs.Exit, j.Start, j.End)
		}
		spans = append(spans, Span{Stage: st, Cause: ca, Enter: rs.Enter, Exit: rs.Exit})
	}
	j.Spans = spans
	r.cuts = j.attribute(r.cuts)
	// Compare by probing known stage names (never ranging the map, which
	// would be nondeterministic); the count catches unknown keys.
	matched := 0
	for s := 0; s < NumStages; s++ {
		v, ok := raw.Vec[stageNames[s]]
		if ok {
			matched++
		}
		if v != j.Vec[s] {
			return fmt.Errorf("jid %d: vec charges %s %d cycles, its spans attribute %d", jid, Stage(s), v, j.Vec[s])
		}
	}
	if matched != len(raw.Vec) {
		return fmt.Errorf("jid %d: vec contains %d unknown stage keys", jid, len(raw.Vec)-matched)
	}
	if err := r.pad(uint64(jid)-1, hdr); err != nil {
		return err
	}
	slot := r.alloc()
	*slot = j
	slot.Spans = r.keep(spans)
	return nil
}

// pad fills the JIDs up to n that the journal skipped with empty
// unfinished slots: journeys still in flight when the run ended, of
// which the header allows sampled - finished.
func (r *Recorder) pad(n uint64, hdr *rawLine) error {
	if n-uint64(len(r.journeys)) > hdr.Sampled-hdr.Finished-uint64(r.open) {
		return fmt.Errorf("more journeys in flight than the header's %d sampled, %d finished", hdr.Sampled, hdr.Finished)
	}
	for uint64(len(r.journeys)) < n {
		r.alloc().JID = uint32(len(r.journeys))
		r.open++
	}
	return nil
}

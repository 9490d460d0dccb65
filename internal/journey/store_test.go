package journey

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"prosper/internal/sim"
	"prosper/internal/telemetry"
)

// schedule drives a recorder at rate 1 through a seeded mix of
// interleaved journeys: up to maxOpen open at once, one to three line
// segments each, spans recorded in any order among the open ones, and
// late spans and segment completions aimed at finished journeys (which
// the recorder must drop). want[jid] is every span recorded while jid
// was open, in order.
type schedule struct {
	r    *Recorder
	rng  *rand.Rand
	now  sim.Time
	open []uint32
	want map[uint32][]Span
}

const maxOpen = 64

func newSchedule(r *Recorder, seed int64) *schedule {
	return &schedule{r: r, rng: rand.New(rand.NewSource(seed)), want: map[uint32][]Span{}}
}

// step performs one random recorder call.
func (s *schedule) step() {
	r, rng := s.r, s.rng
	s.now += sim.Time(rng.Intn(4))
	switch op := rng.Intn(10); {
	case len(s.open) == 0 || (op < 2 && len(s.open) < maxOpen):
		jid := r.Start(s.now, rng.Intn(2) == 0, uint64(rng.Intn(1<<20))*8, 8, 1+rng.Intn(3))
		s.open = append(s.open, jid)
	case op < 7:
		jid := s.open[rng.Intn(len(s.open))]
		enter := r.Journeys()[jid-1].Start + sim.Time(rng.Intn(50))
		sp := Span{Stage(rng.Intn(NumStages)), Cause(rng.Intn(NumCauses)), enter, enter + sim.Time(rng.Intn(200))}
		r.Span(jid, sp.Stage, sp.Cause, sp.Enter, sp.Exit)
		s.want[jid] = append(s.want[jid], sp)
	case op < 9:
		i := rng.Intn(len(s.open))
		jid := s.open[i]
		r.SegDone(jid, s.now)
		if r.Journeys()[jid-1].Finished() {
			s.open = slices.Delete(s.open, i, i+1)
		}
	default:
		jid := uint32(1 + rng.Intn(len(r.Journeys())))
		if r.Journeys()[jid-1].Finished() {
			r.Span(jid, StageDrain, CauseNVMDrain, 0, 1<<40)
			r.SegDone(jid, 1<<40)
		}
	}
}

// check requires every journey's spans to be exactly what was recorded
// for its JID, finished journeys' spans to be capacity-clipped windows,
// and each Vec to be the attribution of its own spans.
func (s *schedule) check(t *testing.T) {
	t.Helper()
	for _, j := range s.r.Journeys() {
		if !slices.Equal(j.Spans, s.want[j.JID]) {
			t.Fatalf("jid %d (finished %v): spans %v, recorded %v", j.JID, j.Finished(), j.Spans, s.want[j.JID])
		}
		if !j.Finished() {
			continue
		}
		if cap(j.Spans) != len(j.Spans) {
			t.Fatalf("jid %d: finished spans have spare capacity %d", j.JID, cap(j.Spans)-len(j.Spans))
		}
		ref := *j
		ref.Spans = slices.Clone(j.Spans)
		ref.attribute(nil)
		var sum sim.Time
		for _, v := range j.Vec {
			sum += v
		}
		if ref.Vec != j.Vec || sum != j.Latency() {
			t.Fatalf("jid %d: vec %v (sum %d, latency %d), its spans attribute %v", j.JID, j.Vec, sum, j.Latency(), ref.Vec)
		}
	}
}

// TestJourneyStorageNoAliasing pins the block storage: interleaved,
// multi-segment and unfinished journeys keep exactly their own spans,
// later journeys never overwrite earlier ones, and the journal and
// trace bytes equal the reference encoders'.
func TestJourneyStorageNoAliasing(t *testing.T) {
	jl := NewJournal()
	r := jl.NewRecorder("aliasing", 1, 1)
	s := newSchedule(r, 1)
	for range 20_000 {
		s.step()
	}
	if len(s.open) < 8 {
		t.Fatalf("schedule left %d journeys open, want several unfinished", len(s.open))
	}
	s.check(t)

	type before struct {
		j     *Journey
		spans []Span
		vec   [NumStages]sim.Time
	}
	var earlier []before
	for _, j := range r.Journeys() {
		earlier = append(earlier, before{j, slices.Clone(j.Spans), j.Vec})
	}
	// The earlier journeys left open stay open: their scratch buffers
	// must not be handed to the new ones.
	s.open = nil
	for len(r.Journeys()) < len(earlier)+10_000 {
		s.step()
	}
	s.check(t)
	for i, b := range earlier {
		j := r.Journeys()[i]
		if j != b.j || !slices.Equal(j.Spans, b.spans) || j.Vec != b.vec {
			t.Fatalf("jid %d changed after 10k more journeys: spans %v vec %v, were %v %v", j.JID, j.Spans, j.Vec, b.spans, b.vec)
		}
	}

	var got, want bytes.Buffer
	if err := jl.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if err := refWriteJSONL(jl, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("WriteJSONL differs from the reference encoder")
	}
	roundTrip(t, jl)

	got.Reset()
	want.Reset()
	tr := telemetry.NewTrace()
	ExportTrace(r, tr.NewTracer(r.Name()))
	if err := tr.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := refExportTrace(r, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("ExportTrace differs from the reference export")
	}
}

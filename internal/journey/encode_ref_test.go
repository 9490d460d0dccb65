package journey

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"

	"prosper/internal/sim"
)

// refWriteJSONL is the fmt-based journal encoder WriteJSONL replaced,
// kept as the reference the append encoder must match byte for byte.
func refWriteJSONL(jl *Journal, w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"journey_journal\":%d}\n", FormatVersion)
	for _, r := range jl.Recorders() {
		accesses, sampled, finished := r.Counts()
		fmt.Fprintf(bw, "{\"run\":%s,\"rate\":%d,\"seed\":%d,\"accesses\":%d,\"sampled\":%d,\"finished\":%d}\n",
			strconv.Quote(r.name), r.rate, r.seed, accesses, sampled, finished)
		for _, j := range r.journeys {
			if j.finished {
				refWriteJourney(bw, j)
			}
		}
	}
	return bw.Flush()
}

func refWriteJourney(bw *bufio.Writer, j *Journey) {
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
}

// trickyPieces build run names: JSON metacharacters, control bytes,
// invalid UTF-8 and non-ASCII runes.
var trickyPieces = []string{
	"a", "Z", "0", " ", "/", `"`, `\`, "\x00", "\n", "\x1f", "\x7f",
	"\x80", "\xff", "\xc3", "é", "日本", "\u2028", "\ufffd", "\U0001F600",
}

func randString(r *rand.Rand) string {
	var b []byte
	for range r.Intn(6) {
		b = append(b, trickyPieces[r.Intn(len(trickyPieces))]...)
	}
	return string(b)
}

func randInt64(r *rand.Rand) int64 {
	switch r.Intn(4) {
	case 0:
		return []int64{0, 1, -1, math.MaxInt64, math.MinInt64}[r.Intn(5)]
	case 1:
		return -r.Int63()
	default:
		return r.Int63()
	}
}

func randUint64(r *rand.Rand) uint64 {
	if r.Intn(3) == 0 {
		return []uint64{0, 1, math.MaxInt64 + 1, math.MaxUint64}[r.Intn(4)]
	}
	return r.Uint64()
}

// randJournal is a quick.Generator of journals: hostile run names,
// stages and causes in and out of range, unfinished journeys, and
// extreme counters and cycles.
type randJournal struct{ jl *Journal }

func (randJournal) Generate(r *rand.Rand, size int) reflect.Value {
	jl := NewJournal()
	for range r.Intn(4) {
		rec := &Recorder{name: randString(r), rate: randUint64(r), seed: randUint64(r), seq: randUint64(r)}
		for range r.Intn(size + 1) {
			j := &Journey{
				JID: r.Uint32(), Seq: randUint64(r), Write: r.Intn(2) == 0,
				VAddr: randUint64(r), Size: int(randInt64(r)),
				Start: randInt64(r), End: randInt64(r), finished: r.Intn(4) != 0,
			}
			for range r.Intn(5) {
				j.Spans = append(j.Spans, Span{
					Stage: Stage(r.Intn(NumStages + 1)), Cause: Cause(r.Intn(NumCauses + 1)),
					Enter: randInt64(r), Exit: randInt64(r),
				})
			}
			for s := range j.Vec {
				if r.Intn(2) == 0 {
					j.Vec[s] = randInt64(r)
				}
			}
			rec.journeys = append(rec.journeys, j)
		}
		rec.open = r.Intn(len(rec.journeys) + 1)
		jl.recorders = append(jl.recorders, rec)
	}
	return reflect.ValueOf(randJournal{jl})
}

// TestWriteJSONLMatchesReference checks the append encoder against the
// fmt reference on random journals.
func TestWriteJSONLMatchesReference(t *testing.T) {
	check := func(g randJournal) bool {
		var got, want bytes.Buffer
		if err := g.jl.WriteJSONL(&got); err != nil {
			t.Fatal(err)
		}
		if err := refWriteJSONL(g.jl, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("encoders differ:\n got: %q\nwant: %q", got.Bytes(), want.Bytes())
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestWriteJSONLAllocs pins that serializing a journal allocates per
// journal, never per journey.
func TestWriteJSONLAllocs(t *testing.T) {
	jl := NewJournal()
	rec := jl.NewRecorder("allocs", 1, 7)
	for i := sim.Time(0); i < 1000; i++ {
		jid := rec.Start(i, i%2 == 0, uint64(i)*64, 8, 1)
		rec.Span(jid, StageL1, CauseMiss, i, i+4)
		rec.Span(jid, StageDevService, CauseNVM, i+4, i+300)
		rec.SegDone(jid, i+300)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := jl.WriteJSONL(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("WriteJSONL of 1000 journeys: %v allocs, want at most 16", allocs)
	}
}

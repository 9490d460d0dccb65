package journey

import (
	"bufio"
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"prosper/internal/sim"
	"prosper/internal/telemetry"
)

// journeyCycle records one sampled access the way a cache-missing load
// does: nine stage spans, then its single segment retires.
func journeyCycle(r *Recorder, now sim.Time) {
	jid := r.Start(now, false, uint64(now)*64, 8, 1)
	for s := Stage(0); s < 9; s++ {
		r.Span(jid, s, CauseMiss, now+sim.Time(s), now+sim.Time(2*s)+3)
	}
	r.SegDone(jid, now+40)
}

// TestRecorderJourneyAllocs pins that a sampled access costs no
// allocation of its own: journeys and spans go into blocks, an open
// journey's scratch buffer is recycled, and the attribution sweep
// reuses the recorder's boundary list.
func TestRecorderJourneyAllocs(t *testing.T) {
	r := NewRecorder("allocs", 1, 1)
	now := sim.Time(0)
	allocs := testing.AllocsPerRun(1000, func() {
		journeyCycle(r, now)
		now += 50
	})
	if allocs != 0 {
		t.Fatalf("Start + 9 Span + SegDone: %v allocs per journey, want 0 amortized", allocs)
	}
}

// bigRecorder returns a rate-1 recorder holding n finished journeys of
// three spans each.
func bigRecorder(n int) *Recorder {
	r := NewRecorder("big", 1, 1)
	for i := 0; i < n; i++ {
		now := sim.Time(100 * i)
		jid := r.Start(now, i%2 == 0, uint64(i)*64, 8, 1)
		r.Span(jid, StageTLB, CauseWalk, now, now+20)
		r.Span(jid, StageL1, CauseMiss, now+20, now+30)
		r.Span(jid, StageDevService, CauseNVM, now+30, now+90)
		r.SegDone(jid, now+90)
	}
	return r
}

// TestExportTraceAllocs pins that exporting allocates per tracer block,
// not per journey or span: a 10k-journey export (60k events) may
// allocate once per 512 events, plus a constant for the tracks, the
// span-name table and the flow-name string.
func TestExportTraceAllocs(t *testing.T) {
	r := bigRecorder(10_000)
	events := 0
	allocs := testing.AllocsPerRun(3, func() {
		tc := telemetry.NewTrace().NewTracer("export")
		ExportTrace(r, tc)
		events = tc.Events()
	})
	if limit := events/512 + 64; allocs > float64(limit) {
		t.Fatalf("ExportTrace of 10k journeys (%d events): %v allocs, want at most %d", events, allocs, limit)
	}
}

// TestParseAllocs pins that parsing a journal stores journeys per
// block, not per line: beyond what decoding the lines costs on its own
// (decodeOnly), a 10k-journey journal may allocate once per 64 lines.
func TestParseAllocs(t *testing.T) {
	jl := NewJournal()
	jl.recorders = append(jl.recorders, bigRecorder(10_000))
	var journal bytes.Buffer
	if err := jl.WriteJSONL(&journal); err != nil {
		t.Fatal(err)
	}
	decode := testing.AllocsPerRun(3, func() {
		if err := decodeOnly(journal.Bytes()); err != nil {
			t.Fatal(err)
		}
	})
	parse := testing.AllocsPerRun(3, func() {
		if _, err := Parse(bytes.NewReader(journal.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	if stored := parse - decode; stored > 10_000/64 {
		t.Fatalf("Parse of 10k journey lines: %v allocs, %v beyond decoding them, want at most one per 64 lines",
			parse, stored)
	}
}

// decodeOnly reads a journal the way Parse does, decoding every line
// and storing nothing.
func decodeOnly(journal []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(journal))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		var raw rawLine
		if err := json.Unmarshal(bytes.TrimSpace(sc.Bytes()), &raw); err != nil {
			return err
		}
	}
	return sc.Err()
}

// TestSmallRecorderStaysSmall pins that block storage starts small: a
// recorder holding a handful of journeys must not pin a large block.
func TestSmallRecorderStaysSmall(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewRecorder("small", 1, 1)
	for i := sim.Time(0); i < 3; i++ {
		journeyCycle(r, 100*i)
	}
	runtime.ReadMemStats(&after)
	if _, _, finished := r.Counts(); finished != 3 {
		t.Fatalf("recorder finished %d journeys, want 3", finished)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b >= 4<<10 {
		t.Fatalf("a 3-journey recorder allocated %d bytes, want < 4 KiB", b)
	}
	runtime.KeepAlive(r)
}

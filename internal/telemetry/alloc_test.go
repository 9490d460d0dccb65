package telemetry

import (
	"io"
	"runtime"
	"testing"

	"prosper/internal/sim"
)

// TestLiveTracerAllocs pins that recording costs no allocation per
// call: events and their args are copied into blocks, so a block is
// allocated once per hundreds of calls and the variadic args stay on
// the caller's stack.
func TestLiveTracerAllocs(t *testing.T) {
	tc := NewTrace().NewTracer("allocs")
	tc.Bind(sim.NewEngine())
	track := tc.Track("lane")
	allocs := testing.AllocsPerRun(1000, func() {
		tc.Instant(track, "flush", I("live_entries", 3))
		tc.Counter(track, "nvm.write_queue", "depth", 12)
		sp := tc.Begin(track, "checkpoint")
		sp.End(U("bytes", 4096), U("pages", 1), S("phase", "commit"))
		tc.SpanAt(track, "l1:hit", 100, 3, U("jid", 7), U("seq", 9), S("kind", "load"), U("vaddr", 64))
	})
	if allocs != 0 {
		t.Fatalf("live tracer: %v allocs per call group, want 0 amortized", allocs)
	}
}

// TestNilTracerArgsAllocs pins that telemetry off stays free for calls
// that carry args: the variadic slice must not escape, or every such
// call site heap-allocates its args even though nothing records them.
func TestNilTracerArgsAllocs(t *testing.T) {
	var tc *Tracer
	var track Track
	allocs := testing.AllocsPerRun(100, func() {
		tc.Begin(track, "checkpoint").End(U("bytes", 4096), S("phase", "commit"))
		tc.Instant(track, "flush", I("live_entries", 3))
		tc.SpanAt(track, "l1:hit", 100, 3, U("jid", 7))
	})
	if allocs != 0 {
		t.Fatalf("nil tracer: %v allocs per call group with args, want 0", allocs)
	}
}

// bigTrace returns a trace of one tracer holding n events with args.
func bigTrace(n int) (*Trace, *Tracer) {
	tr := NewTrace()
	tc := tr.NewTracer("big")
	track := tc.Track("lane")
	for i := 2; i < n; i++ {
		tc.SpanAt(track, "dev_service:nvm", sim.Time(i), 3, U("jid", uint64(i)), S("kind", "store"))
	}
	return tr, tc
}

// TestWriteJSONAllocs pins that serializing a trace allocates per block
// at most, never per event.
func TestWriteJSONAllocs(t *testing.T) {
	tr, tc := bigTrace(10_000)
	blocks := len(tc.blocks())
	allocs := testing.AllocsPerRun(5, func() {
		if err := tr.WriteJSON(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > float64(blocks) {
		t.Fatalf("WriteJSON of %d events: %v allocs, want at most %d (one per block)", tc.Events(), allocs, blocks)
	}
}

// TestSmallTracerStaysSmall pins that block storage starts small: one
// run's tracer holding a handful of events must not pin a large block.
func TestSmallTracerStaysSmall(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := NewTrace()
	tc := tr.NewTracer("small")
	track := tc.Track("lane")
	tc.Instant(track, "flush", I("live_entries", 3))
	tc.Counter(track, "nvm.write_queue", "depth", 12)
	tc.Begin(track, "checkpoint").End(U("bytes", 4096))
	runtime.ReadMemStats(&after)
	if n := tc.Events(); n != 5 {
		t.Fatalf("tracer holds %d events, want 5", n)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b >= 8<<10 {
		t.Fatalf("a 5-event tracer allocated %d bytes, want < 8 KiB", b)
	}
	runtime.KeepAlive(tr)
}

// TestRepeatedArgsStoredOnce pins that a run of events with equal args
// (a journey's spans, with arg-less flow points between them) shares
// one args window, and that a change of args starts a new one.
func TestRepeatedArgsStoredOnce(t *testing.T) {
	tc := NewTrace().NewTracer("shared")
	track := tc.Track("lane")
	for i := 0; i < 10_000; i++ {
		tc.SpanAt(track, "l1:miss", sim.Time(i), 3, U("jid", 7), U("seq", 9), S("kind", "load"), U("vaddr", 64))
		tc.FlowStep(track, "journey 7", 7, sim.Time(i))
	}
	tc.SpanAt(track, "l1:miss", 0, 3, U("jid", 8), U("seq", 9), S("kind", "load"), U("vaddr", 64))
	windows := map[*Arg]int{}
	for _, blk := range tc.blocks() {
		for i := range blk {
			if e := &blk[i]; e.ph == 'X' {
				windows[&e.args[0]]++
			}
		}
	}
	if len(windows) != 2 {
		t.Fatalf("10k spans with equal args and one with new args use %d args windows, want 2", len(windows))
	}
}

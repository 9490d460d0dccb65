package telemetry

import (
	"io"
	"testing"

	"prosper/internal/sim"
)

// The nil-tracer benchmarks pin the disabled fast path: with telemetry
// off, every Tracer call must be a branch on a nil receiver and nothing
// else — no allocation, no time lookup. CI runs these with -benchtime=1x
// as a smoke test that the path stays alive and alloc-free.

func BenchmarkNilTracerSpan(b *testing.B) {
	var tc *Tracer
	track := tc.Track("lane")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tc.Begin(track, "checkpoint")
		sp.End()
	}
}

func BenchmarkNilTracerInstant(b *testing.B) {
	var tc *Tracer
	track := tc.Track("lane")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tc.Instant(track, "flush")
	}
}

func BenchmarkNilTracerCounter(b *testing.B) {
	var tc *Tracer
	track := tc.Track("lane")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tc.Counter(track, "nvm.write_queue", "depth", int64(i))
	}
}

// BenchmarkEnabledTracerSpan is the comparison point: the live path is
// expected to cost an append; the nil path must cost ~nothing.
func BenchmarkEnabledTracerSpan(b *testing.B) {
	tr := NewTrace()
	tc := tr.NewTracer("bench")
	tc.Bind(sim.NewEngine())
	track := tc.Track("lane")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tc.Begin(track, "checkpoint")
		sp.End()
	}
}

// BenchmarkTraceWriteJSON serializes a 10k-event trace; CI runs it with
// -benchtime=1x as a smoke test of the append encoder.
func BenchmarkTraceWriteJSON(b *testing.B) {
	tr, _ := bigTrace(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

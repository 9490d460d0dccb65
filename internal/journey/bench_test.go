package journey

import (
	"testing"

	"prosper/internal/sim"
	"prosper/internal/telemetry"
)

// BenchmarkRecorderJourney records one sampled nine-span access per
// iteration; CI runs it with -benchtime=1x as a smoke test of the
// recorder's block storage.
func BenchmarkRecorderJourney(b *testing.B) {
	r := NewRecorder("bench", 1, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		journeyCycle(r, sim.Time(50*i))
	}
}

// BenchmarkExportTrace exports a 10k-journey recorder into a fresh
// tracer per iteration.
func BenchmarkExportTrace(b *testing.B) {
	r := bigRecorder(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExportTrace(r, telemetry.NewTrace().NewTracer("bench"))
	}
}

package mem

import "testing"

// BenchmarkStorageWrite reports ns per functional 8-byte store streaming
// through a 16-page footprint, the core's per-store Storage.Write.
func BenchmarkStorageWrite(b *testing.B) {
	s := NewStorage()
	const footprint = 16 * PageSize
	var word [8]byte
	for a := uint64(0); a < footprint; a += PageSize {
		s.Write(a, word[:]) // materialize every page before timing
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		word[0] = byte(i)
		s.Write(uint64(i*8)%footprint, word[:])
	}
}

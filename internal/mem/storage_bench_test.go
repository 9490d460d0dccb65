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

// BenchmarkStorageCopy reports ns per unaligned one-page copy between
// materialized pages, the checkpoint gather's functional copy.
func BenchmarkStorageCopy(b *testing.B) {
	s := NewStorage()
	s.Write(0, make([]byte, 8*PageSize))
	b.ReportAllocs()
	b.SetBytes(PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Copy(4*PageSize+uint64(i%64)*8, 24, PageSize)
	}
}

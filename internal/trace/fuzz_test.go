package trace

import "testing"

// FuzzAnalyses runs the trace analyses over arbitrary record sets: they
// must never panic and must preserve basic accounting identities.
func FuzzAnalyses(f *testing.F) {
	f.Add(uint64(0x7fff0000), uint16(100), uint8(7))
	f.Add(uint64(4096), uint16(1), uint8(0))
	f.Fuzz(func(t *testing.T, stackHi uint64, n uint16, mix uint8) {
		if stackHi < 4096 {
			stackHi = 4096
		}
		tr := &Trace{StackHi: stackHi, StackLo: stackHi}
		for i := 0; i < int(n); i++ {
			r := Record{
				Time:  int64(i * (int(mix%7) + 1)),
				Addr:  stackHi - uint64(i%4000) - 8,
				SP:    stackHi - uint64(i%4000) - 8,
				Size:  int32(i%16) + 1,
				Write: i%int(mix%3+2) == 0,
				Stack: i%int(mix%5+1) != 0,
			}
			tr.Records = append(tr.Records, r)
		}
		b := Breakdown(tr)
		if b.Total() != uint64(len(tr.Records)) {
			t.Fatal("breakdown lost records")
		}
		ivs := Intervals(tr, tr.Duration()/4+1)
		var writes uint64
		for _, iv := range ivs {
			if iv.BeyondFinalSP > iv.StackWrites {
				t.Fatal("beyond > total")
			}
			writes += iv.StackWrites
		}
		if writes != b.StackWrites {
			t.Fatal("interval writes disagree with breakdown")
		}
		cs := CheckpointSizes(tr, tr.Duration()/4+1, 8)
		if cs.TotalBytes%8 != 0 {
			t.Fatal("checkpoint bytes not granule-aligned")
		}
	})
}

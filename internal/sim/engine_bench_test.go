package sim

import "testing"

// dispatchDelays is the measured delay mix of a store-bound run: the
// 1-cycle kernel step, the 3-cycle L1 hit and the 12-cycle L2 dominate,
// and one event in nine (11%) waits ~200 cycles, still inside the wheel.
var dispatchDelays = [...]Time{1, 3, 1, 12, 1, 3, 200, 1, 3}

// BenchmarkEngineDispatch reports ns per dispatched event for 16
// self-rescheduling event chains (the mean queue depth of a store-bound
// run) plus a checkpoint-like ticker whose period lies beyond the wheel,
// driven through RunUntil windows the way the kernel drives the engine.
func BenchmarkEngineDispatch(b *testing.B) {
	e := NewEngine()
	i := 0
	var fire func()
	fire = func() {
		i++
		e.Schedule(CompOther, dispatchDelays[i%len(dispatchDelays)], fire)
	}
	for k := 0; k < 16; k++ {
		e.Schedule(CompOther, Time(k), fire)
	}
	e.NewTicker(CompOther, 600, func() {})
	e.RunUntil(10_000) // warm: grow the queue to working size
	b.ReportAllocs()
	b.ResetTimer()
	target := e.Fired() + uint64(b.N)
	for e.Fired() < target {
		e.RunUntil(e.Now() + 64)
	}
}

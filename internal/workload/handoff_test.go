package workload

import (
	"runtime"
	"testing"
	"time"
)

// counted is a finite body that emits n stores at addresses 0..n-1.
func counted(n int) func(*G) {
	return func(g *G) {
		for i := 0; i < n; i++ {
			g.Store(uint64(i), 8)
		}
	}
}

// endless is a steady-state body that never returns.
func endless(g *G) {
	for i := uint64(0); ; i++ {
		g.Store(i, 8)
	}
}

// batchLens are op counts on and around the batch boundaries.
var batchLens = []int{0, 1, batch - 1, batch, batch + 1, 2 * batch, 2*batch + 1}

func TestProgramBatchBoundaries(t *testing.T) {
	sp := testCtx().StackHi
	for _, n := range batchLens {
		p := NewProgram("counted", counted(n))
		p.Start(testCtx())
		for i := 0; i < n; i++ {
			want := Op{Kind: Store, Addr: uint64(i), Size: 8, SP: sp}
			if got := p.Next(); got != want {
				t.Fatalf("n=%d: op %d = %+v, want %+v", n, i, got, want)
			}
		}
		for i := 0; i < 3; i++ {
			if got := p.Next(); got.Kind != End {
				t.Fatalf("n=%d: op %d after the body returned = %+v, want End", n, n+i, got)
			}
		}
		p.Close()
	}
}

func TestProgramCloseAtBatchBoundaries(t *testing.T) {
	for _, n := range batchLens {
		for _, k := range batchLens {
			if k > n+1 {
				continue
			}
			// Close after k Nexts, with the producer k ops in, at a
			// boundary, or already returned.
			p := NewProgram("counted", counted(n))
			p.Start(testCtx())
			for i := 0; i < k; i++ {
				p.Next()
			}
			p.Close() // must not hang
			p.Close()
		}
	}
}

// waitGoroutines waits for the goroutine count to fall back to base:
// iter.Pull runs the body on a goroutine of its own, which must exit when
// the body returns or Close stops it.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

func TestProgramLeavesNoGoroutine(t *testing.T) {
	t.Run("close mid-batch", func(t *testing.T) {
		base := runtime.NumGoroutine()
		p := NewProgram("endless", endless)
		p.Start(testCtx())
		for i := 0; i < batch/2; i++ {
			p.Next()
		}
		p.Close()
		waitGoroutines(t, base)
	})

	t.Run("body returns", func(t *testing.T) {
		base := runtime.NumGoroutine()
		p := NewProgram("counted", counted(batch+1))
		p.Start(testCtx())
		for p.Next().Kind != End {
		}
		waitGoroutines(t, base)
		p.Close()
	})
}

func TestBodyPanicReachesNext(t *testing.T) {
	type bodyFault struct{ at int }
	base := runtime.NumGoroutine()
	p := NewProgram("faulty", func(g *G) {
		for i := 0; i < batch+1; i++ {
			g.Store(uint64(i), 8)
		}
		panic(bodyFault{at: batch + 1})
	})
	p.Start(testCtx())
	for i := 0; i < batch; i++ {
		if op := p.Next(); op.Kind != Store {
			t.Fatalf("op %d = %+v, want a store", i, op)
		}
	}
	func() {
		defer func() {
			if r := recover(); r != (bodyFault{at: batch + 1}) {
				t.Fatalf("Next panicked with %v, want the body's own value", r)
			}
		}()
		p.Next()
		t.Fatal("Next returned after the body panicked")
	}()
	if op := p.Next(); op.Kind != End {
		t.Fatalf("op after the panic = %+v, want End", op)
	}
	p.Close()
	waitGoroutines(t, base)
}

func TestProgramStreamIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const n = 10000
	for _, mk := range []func() Program{
		func() Program { return NewApp(GapbsPR()) },
		func() Program { return NewQuicksort(0) },
	} {
		runtime.GOMAXPROCS(1)
		one := runOps(t, mk(), n)
		runtime.GOMAXPROCS(4)
		four := runOps(t, mk(), n)
		if len(one) != n || len(four) != n {
			t.Fatalf("%s: %d and %d ops, want %d", mk().Name(), len(one), len(four), n)
		}
		for i := range one {
			if one[i] != four[i] {
				t.Fatalf("%s: op %d is %+v on one P, %+v on four", mk().Name(), i, one[i], four[i])
			}
		}
	}
}

func TestProgramNextAllocFree(t *testing.T) {
	p := NewStream(MicroParams{})
	p.Start(testCtx())
	defer p.Close()
	for i := 0; i < 4*batch; i++ {
		p.Next()
	}
	if allocs := testing.AllocsPerRun(10*batch, func() { p.Next() }); allocs != 0 {
		t.Fatalf("steady-state Next allocates %v per op, want 0", allocs)
	}
}

var sinkOp Op

func BenchmarkProgramNext(b *testing.B) {
	for _, c := range []struct {
		name string
		mk   func() Program
	}{
		{"stream", func() Program { return NewStream(MicroParams{}) }},
		{"gapbs_pr", func() Program { return NewApp(GapbsPR()) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			p := c.mk()
			p.Start(testCtx())
			defer p.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkOp = p.Next()
			}
		})
	}
}

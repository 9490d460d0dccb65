package kernel

import (
	"testing"

	"prosper/internal/machine"
	"prosper/internal/mem"
	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/workload"
)

// storeLog wraps a program and records every store it hands the kernel,
// in issue order, so a test can replay the thread's payloads.
type storeLog struct {
	workload.Program
	stores []workload.Op
}

func (l *storeLog) Next() workload.Op {
	op := l.Program.Next()
	if op.Kind == workload.Store {
		l.stores = append(l.stores, op)
	}
	return op
}

// heapAndStackStores stores over rounds heap locations a little more than
// a page apart, some of them straddling a cache line, and into a fresh
// stack frame each round.
func heapAndStackStores(name string, rounds int) *storeLog {
	return &storeLog{Program: workload.NewProgram(name, func(g *workload.G) {
		for i := 0; i < rounds; i++ {
			g.Store(g.Ctx.HeapLo+uint64(i)*4136%(g.Ctx.HeapSize-64), 24)
			g.Call(64)
			g.StoreLocal(8, 16)
			g.Ret(64)
		}
	})}
}

// expectedBytes replays the thread's payloads (storeData is a function
// of the store's address and the thread's store sequence) and returns
// the final value of every byte the stores in [lo, hi) wrote.
func expectedBytes(l *storeLog, lo, hi uint64) map[uint64]byte {
	ref := &Thread{}
	want := map[uint64]byte{}
	for _, op := range l.stores {
		data := ref.storeData(op, true)
		if op.Addr < lo || op.Addr >= hi {
			continue
		}
		for i, b := range data {
			want[op.Addr+uint64(i)] = b
		}
	}
	return want
}

// checkBytes fails unless every byte in want reads back through p's page
// table with its expected value.
func checkBytes(t *testing.T, k *Kernel, p *Process, what string, want map[uint64]byte) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("%s: no stores to check", what)
	}
	for va, b := range want {
		paddr, _, ok := p.AS.PT.Translate(va)
		if !ok {
			t.Fatalf("%s: %#x never mapped", what, va)
		}
		var got [1]byte
		k.Mach.Storage.Read(paddr, got[:])
		if got[0] != b {
			t.Fatalf("%s: byte at %#x = %#x, want %#x", what, va, got[0], b)
		}
	}
}

// heapPages returns how many of p's heap pages are mapped and how many
// of their frames have a Storage page.
func heapPages(k *Kernel, p *Process) (mapped, backed int) {
	for va := heapBase; va < heapBase+p.Cfg.HeapSize; va += mem.PageSize {
		if paddr, _, ok := p.AS.PT.Translate(va); ok {
			mapped++
			if k.Mach.Storage.Backed(paddr) {
				backed++
			}
		}
	}
	return mapped, backed
}

// TestVolatileHeapStoresKeepNoBytes checks that a process without a heap
// mechanism maps and touches its heap but materializes no Storage page
// for it, while its stack stores still land byte for byte.
func TestVolatileHeapStoresKeepNoBytes(t *testing.T) {
	k := testKernel(1)
	prog := heapAndStackStores("volatile", 300)
	p := k.Spawn(ProcessConfig{Name: "volatile", HeapSize: 1 << 20}, prog)
	if !k.RunUntilDone(sim.Second) {
		t.Fatal("process never finished")
	}
	mapped, backed := heapPages(k, p)
	if mapped < 100 {
		t.Fatalf("only %d heap pages mapped, want the stores to spread over 100 or more", mapped)
	}
	if backed != 0 {
		t.Fatalf("%d of %d mapped heap pages have a Storage page, want 0", backed, mapped)
	}
	th := p.Threads[0]
	checkBytes(t, k, p, "stack", expectedBytes(prog, th.StackSeg.Lo, th.StackSeg.Hi))
}

// TestPersistentHeapStoresKeepBytes checks that a heap with a mechanism
// holds exactly the bytes its stores wrote.
func TestPersistentHeapStoresKeepBytes(t *testing.T) {
	k := testKernel(1)
	prog := heapAndStackStores("dirtyheap", 300)
	p := k.Spawn(ProcessConfig{
		Name:     "dirtyheap",
		HeapMech: persist.NewDirtybit(persist.DirtybitConfig{}),
		HeapSize: 1 << 20,
	}, prog)
	if !k.RunUntilDone(sim.Second) {
		t.Fatal("process never finished")
	}
	checkBytes(t, k, p, "heap", expectedBytes(prog, heapBase, heapBase+p.Cfg.HeapSize))
}

// TestTimingOnlyRangeFollowsContextSwitches time-shares one core between
// a process with a heap mechanism and one without. Both heaps sit at the
// same virtual range, so a range left over from the other process would
// either drop the first one's heap bytes or back the second one's heap.
func TestTimingOnlyRangeFollowsContextSwitches(t *testing.T) {
	k := New(Config{Machine: machine.Config{Cores: 1}, Quantum: 5 * sim.Microsecond})
	kept := heapAndStackStores("kept", 2000)
	dropped := heapAndStackStores("dropped", 2000)
	pk := k.Spawn(ProcessConfig{
		Name:     "kept",
		HeapMech: persist.NewDirtybit(persist.DirtybitConfig{}),
		HeapSize: 1 << 20,
	}, kept)
	pd := k.Spawn(ProcessConfig{Name: "dropped", HeapSize: 1 << 20}, dropped)
	if !k.RunUntilDone(sim.Second) {
		t.Fatal("processes never finished")
	}
	if n := k.Counters.Get("kernel.context_switches"); n < 10 {
		t.Fatalf("context switches = %d, want the processes to alternate at least 10 times", n)
	}
	checkBytes(t, k, pk, "kept heap", expectedBytes(kept, heapBase, heapBase+pk.Cfg.HeapSize))
	if mapped, backed := heapPages(k, pd); mapped == 0 || backed != 0 {
		t.Fatalf("second process: %d of %d mapped heap pages have a Storage page, want 0 of some", backed, mapped)
	}
	th := pd.Threads[0]
	checkBytes(t, k, pd, "second stack", expectedBytes(dropped, th.StackSeg.Lo, th.StackSeg.Hi))
}

// TestStoreDataPattern checks the word-at-a-time payload against its
// byte definition: byte i is byte i%8 of the seed (address xor scaled
// store sequence) xor byte(i), for every size up to a few words and for
// payloads long enough that byte(i) wraps.
func TestStoreDataPattern(t *testing.T) {
	th := &Thread{}
	for _, size := range []int{1, 3, 7, 8, 9, 15, 16, 24, 29, 300} {
		op := workload.Op{Kind: workload.Store, Addr: 0x7000_0000 - uint64(size)*13, Size: int32(size)}
		got := th.storeData(op, true)
		seed := op.Addr ^ th.storeSeq*0x9e3779b97f4a7c15
		for i, b := range got {
			if want := byte(seed>>(8*(i%8))) ^ byte(i); b != want {
				t.Fatalf("size %d: byte %d = %#x, want %#x", size, i, b, want)
			}
		}
	}
}

package persist

import (
	"bytes"
	"testing"
	"testing/quick"

	"prosper/internal/cache"
	"prosper/internal/machine"
	"prosper/internal/mem"
	"prosper/internal/prosper"
	"prosper/internal/sim"
	"prosper/internal/vm"
)

const (
	segLo = uint64(0x7000_0000)
	segHi = uint64(0x7008_0000) // 512 KiB segment
)

// newEnv builds a machine, an address space with the segment mapped
// on-demand, per-core trackers, and NVM areas for a mechanism under test.
func newEnv(t *testing.T) (*Env, Segment, *machine.Core) {
	if t != nil {
		t.Helper()
	}
	return bootEnv(nil)
}

// bootEnv is newEnv on a machine booted from st (nil: empty memory).
// The segment's NVM areas come from a fresh frame allocator, so a
// machine booted from a crash image finds them where they were.
func bootEnv(st *mem.Storage) (*Env, Segment, *machine.Core) {
	m := machine.New(machine.Config{Cores: 1, Storage: st})
	as := vm.NewAddressSpace(m.DRAMFrames, m.NVMFrames)
	core := m.Cores[0]
	core.AS = as
	core.OnFault = func(vaddr uint64, write bool) error {
		_, err := as.HandleFault(vaddr, write)
		return err
	}
	env := &Env{Mach: m, AS: as}
	for _, c := range m.Cores {
		env.Trackers = append(env.Trackers, prosper.New(m.Eng, c.L2(), m.Storage, prosper.Config{}))
	}
	segBytes := segHi - segLo
	imgPages := int(segBytes / mem.PageSize)
	img, err := m.NVMFrames.AllocContiguous(imgPages)
	if err != nil {
		panic(err)
	}
	meta, err := m.NVMFrames.AllocContiguous(imgPages + 8)
	if err != nil {
		panic(err)
	}
	seg := Segment{
		Lo: segLo, Hi: segHi, Kind: vm.KindStack,
		ImageBase: img, MetaBase: meta, MetaSize: uint64(imgPages+8) * mem.PageSize,
	}
	return env, seg, core
}

// attachVMA maps the segment as a writable stack VMA placed per the
// mechanism and wires the store hook the kernel would install.
func attachVMA(env *Env, seg Segment, core *machine.Core, mech Mechanism) {
	err := env.AS.AddVMA(&vm.VMA{
		Lo: seg.Lo, Hi: seg.Hi, Kind: vm.KindStack, Writable: true,
		InNVM: mech.PlaceInNVM(), ThreadID: 0,
	})
	if err != nil {
		panic(err)
	}
	core.StoreHook = func(vaddr, paddr uint64, size int) sim.Time {
		if vaddr >= seg.Lo && vaddr < seg.Hi {
			return mech.OnStore(core, vaddr, paddr, size)
		}
		return 0
	}
}

// runUntilFlag pumps the engine until the flag is set. Bounded iteration
// matters because SSP's consolidation ticker keeps the queue non-empty
// forever; plain Run() would never return.
func runUntilFlag(env *Env, flag *bool) {
	env.Mach.Eng.RunWhile(func() bool { return !*flag })
	if !*flag {
		panic("simulation drained without reaching the flag")
	}
}

// settle runs a little extra simulated time to let posted traffic land.
func settle(env *Env) {
	env.Mach.Eng.RunUntil(env.Mach.Eng.Now() + 50_000)
}

// writeSeg performs a synchronous-ish store through the core.
func writeSeg(env *Env, core *machine.Core, addr uint64, data []byte) {
	done := false
	core.Write(addr, data, func() { done = true })
	runUntilFlag(env, &done)
	settle(env)
}

// checkpointSync drives the kernel sequence: schedule-out, checkpoint,
// begin-interval, schedule-in.
func checkpointSync(env *Env, core *machine.Core, mech Mechanism) Result {
	var res Result
	doneAll := false
	mech.OnScheduleOut(core, func() {
		mech.Checkpoint(func(r Result) {
			res = r
			mech.BeginInterval()
			mech.OnScheduleIn(core, func() { doneAll = true })
		})
	})
	runUntilFlag(env, &doneAll)
	settle(env)
	return res
}

// segBytesAt reads the current functional contents of the segment range.
func readRange(env *Env, lo, hi uint64) []byte {
	buf := make([]byte, hi-lo)
	for va := lo; va < hi; {
		paddr, _, ok := env.AS.PT.Translate(va)
		n := mem.PageSize - (va & (mem.PageSize - 1))
		if va+n > hi {
			n = hi - va
		}
		if ok {
			env.Mach.Storage.Read(paddr, buf[va-lo:va-lo+n])
		}
		va += n
	}
	return buf
}

func allMechanisms() map[string]Factory {
	return map[string]Factory{
		"prosper":      NewProsper(ProsperConfig{}),
		"dirtybit":     NewDirtybit(DirtybitConfig{}),
		"writeprotect": NewWriteProtect(DirtybitConfig{}),
		"romulus":      NewRomulus(),
		"ssp":          NewSSP(SSPConfig{ConsolidationInterval: 100 * sim.Microsecond}),
		"none":         NewNone(),
	}
}

func TestMechanismsBasicCheckpoint(t *testing.T) {
	for name, factory := range allMechanisms() {
		name, factory := name, factory
		t.Run(name, func(t *testing.T) {
			env, seg, core := newEnv(t)
			mech := factory()
			mech.Attach(env, seg)
			attachVMA(env, seg, core, mech)
			mech.OnScheduleIn(core, func() {})
			settle(env)
			mech.BeginInterval()

			writeSeg(env, core, segLo+0x100, []byte("hello"))
			writeSeg(env, core, segLo+0x4000, bytes.Repeat([]byte{7}, 64))
			res := checkpointSync(env, core, mech)

			if name == "none" {
				if res.BytesCopied != 0 {
					t.Fatalf("none copied %d bytes", res.BytesCopied)
				}
				return
			}
			if res.BytesCopied == 0 {
				t.Fatal("no bytes persisted")
			}
			if s, ok := mech.(*SSP); ok {
				s.Detach()
			}
		})
	}
}

func TestProsperCopiesLessThanDirtybit(t *testing.T) {
	sizes := map[string]uint64{}
	for _, name := range []string{"prosper", "dirtybit"} {
		env, seg, core := newEnv(t)
		mech := allMechanisms()[name]()
		mech.Attach(env, seg)
		attachVMA(env, seg, core, mech)
		mech.OnScheduleIn(core, func() {})
		settle(env)
		mech.BeginInterval()
		// Sparse writes: 8 bytes in each of 10 pages.
		for i := 0; i < 10; i++ {
			writeSeg(env, core, segLo+uint64(i)*mem.PageSize+64, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		}
		res := checkpointSync(env, core, mech)
		sizes[name] = res.BytesCopied
	}
	if sizes["dirtybit"] != 10*mem.PageSize {
		t.Fatalf("dirtybit copied %d, want 10 pages", sizes["dirtybit"])
	}
	if sizes["prosper"] != 10*8 {
		t.Fatalf("prosper copied %d, want 80", sizes["prosper"])
	}
}

func TestProsperImageMatchesSegment(t *testing.T) {
	env, seg, core := newEnv(t)
	mech := NewProsper(ProsperConfig{})()
	mech.Attach(env, seg)
	attachVMA(env, seg, core, mech)
	mech.OnScheduleIn(core, func() {})
	settle(env)
	mech.BeginInterval()

	writeSeg(env, core, segLo+0x1000, []byte("first interval"))
	checkpointSync(env, core, mech)
	writeSeg(env, core, segLo+0x1007, []byte("SECOND"))
	checkpointSync(env, core, mech)

	img := make([]byte, 32)
	env.Mach.Storage.Read(seg.ImageBase+0x1000, img)
	// "first interval" with "SECOND" overlaid at +7 ends in a single 'l'.
	want := []byte("first iSECONDl")
	if !bytes.Equal(img[:len(want)], want) {
		t.Fatalf("image = %q, want %q", img[:len(want)], want)
	}
}

func TestProsperSecondIntervalOnlyNewDirt(t *testing.T) {
	env, seg, core := newEnv(t)
	mech := NewProsper(ProsperConfig{})()
	mech.Attach(env, seg)
	attachVMA(env, seg, core, mech)
	mech.OnScheduleIn(core, func() {})
	settle(env)
	mech.BeginInterval()
	writeSeg(env, core, segLo+0x2000, bytes.Repeat([]byte{1}, 256))
	first := checkpointSync(env, core, mech)
	// No writes: next checkpoint must copy nothing.
	second := checkpointSync(env, core, mech)
	if first.BytesCopied != 256 {
		t.Fatalf("first = %d", first.BytesCopied)
	}
	if second.BytesCopied != 0 {
		t.Fatalf("second = %d, want 0", second.BytesCopied)
	}
}

func TestDirtybitIdleIntervalCopiesNothing(t *testing.T) {
	env, seg, core := newEnv(t)
	mech := NewDirtybit(DirtybitConfig{})()
	mech.Attach(env, seg)
	attachVMA(env, seg, core, mech)
	mech.BeginInterval()
	writeSeg(env, core, segLo, []byte{1})
	first := checkpointSync(env, core, mech)
	second := checkpointSync(env, core, mech)
	if first.BytesCopied != mem.PageSize {
		t.Fatalf("first = %d", first.BytesCopied)
	}
	if second.BytesCopied != 0 {
		t.Fatalf("second = %d (dirty bits not cleared?)", second.BytesCopied)
	}
}

func TestWriteProtectForcesFaults(t *testing.T) {
	env, seg, core := newEnv(t)
	mech := NewWriteProtect(DirtybitConfig{})()
	mech.Attach(env, seg)
	attachVMA(env, seg, core, mech)
	writeSeg(env, core, segLo+0x3000, []byte{1}) // demand fault maps the page
	checkpointSync(env, core, mech)
	wpf := env.AS.WriteFaults()
	writeSeg(env, core, segLo+0x3000, []byte{2}) // must take a wperm fault
	if env.AS.WriteFaults() != wpf+1 {
		t.Fatalf("write faults = %d, want %d", env.AS.WriteFaults(), wpf+1)
	}
	res := checkpointSync(env, core, mech)
	if res.BytesCopied != mem.PageSize {
		t.Fatalf("copied %d", res.BytesCopied)
	}
}

func TestRomulusReplaysEveryEntry(t *testing.T) {
	env, seg, core := newEnv(t)
	mech := NewRomulus()()
	mech.Attach(env, seg)
	attachVMA(env, seg, core, mech)
	// Three overlapping writes to the same 8 bytes: Romulus copies 3x
	// (no coalescing), Prosper would copy once.
	for i := 0; i < 3; i++ {
		writeSeg(env, core, segLo+0x100, []byte{byte(i), 1, 2, 3, 4, 5, 6, 7})
	}
	res := checkpointSync(env, core, mech)
	if res.Ranges != 3 {
		t.Fatalf("ranges = %d, want 3 (one per log entry)", res.Ranges)
	}
	if res.BytesCopied != 24 {
		t.Fatalf("copied %d, want 24", res.BytesCopied)
	}
	// Stack pages must be in NVM.
	paddr, _, _ := env.AS.PT.Translate(segLo + 0x100)
	if !mem.IsNVM(paddr) {
		t.Fatal("romulus stack page not in NVM")
	}
}

func TestSSPTracksLinesAndCommits(t *testing.T) {
	env, seg, core := newEnv(t)
	mech := NewSSP(SSPConfig{ConsolidationInterval: 50 * sim.Microsecond})()
	ssp := mech.(*SSP)
	mech.Attach(env, seg)
	attachVMA(env, seg, core, mech)
	// Two lines in one page, one line in another.
	writeSeg(env, core, segLo, []byte{1})
	writeSeg(env, core, segLo+mem.LineSize, []byte{1})
	writeSeg(env, core, segLo+mem.PageSize, []byte{1})
	res := checkpointSync(env, core, mech)
	if res.BytesCopied != 3*mem.LineSize {
		t.Fatalf("copied %d, want 3 lines", res.BytesCopied)
	}
	if res.Ranges != 2 {
		t.Fatalf("pages = %d, want 2", res.Ranges)
	}
	if ssp.Counters.Get("ssp.shadow_pages") != 2 {
		t.Fatalf("shadow pages = %d", ssp.Counters.Get("ssp.shadow_pages"))
	}
	ssp.Detach()
}

func TestSSPConsolidationRuns(t *testing.T) {
	env, seg, core := newEnv(t)
	mech := NewSSP(SSPConfig{ConsolidationInterval: 10 * sim.Microsecond})()
	ssp := mech.(*SSP)
	mech.Attach(env, seg)
	attachVMA(env, seg, core, mech)
	writeSeg(env, core, segLo, []byte{1})
	// Let several consolidation periods pass with the page inactive.
	env.Mach.Eng.RunUntil(env.Mach.Eng.Now() + 100*sim.Microsecond)
	if ssp.Counters.Get("ssp.consolidated_lines") == 0 {
		t.Fatal("consolidation thread never consolidated")
	}
	ssp.Detach()
}

// recoverProsper boots a fresh machine on a crash image, attaches a
// fresh Prosper to the crashed run's segment seg, and runs its recovery
// path, as the kernel's RecoverProcess does.
func recoverProsper(img *mem.Storage, seg Segment) *Env {
	env, _, core := bootEnv(img)
	mech := NewProsper(ProsperConfig{})()
	mech.Attach(env, seg)
	attachVMA(env, seg, core, mech)
	done := false
	mech.Recover(func() { done = true })
	runUntilFlag(env, &done)
	return env
}

func TestProsperRecoveryRestoresCheckpointedState(t *testing.T) {
	env, seg, core := newEnv(t)
	mech := NewProsper(ProsperConfig{})()
	mech.Attach(env, seg)
	attachVMA(env, seg, core, mech)
	mech.OnScheduleIn(core, func() {})
	settle(env)
	mech.BeginInterval()

	writeSeg(env, core, segLo+0x5000, []byte("durable data"))
	checkpointSync(env, core, mech)
	// Post-checkpoint write that must NOT survive the crash.
	writeSeg(env, core, segLo+0x5000, []byte("VOLATILE!!!!"))

	// Crash: DRAM is lost; reboot on what NVM kept.
	got := readRange(recoverProsper(env.Mach.CrashImage(), seg), segLo+0x5000, segLo+0x5000+16)
	if !bytes.Equal(got[:12], []byte("durable data")) {
		t.Fatalf("recovered %q", got[:12])
	}
}

func TestProsperRecoveryReappliesTornApply(t *testing.T) {
	env, seg, core := newEnv(t)
	mech := NewProsper(ProsperConfig{})()
	mech.Attach(env, seg)
	attachVMA(env, seg, core, mech)
	mech.OnScheduleIn(core, func() {})
	settle(env)
	mech.BeginInterval()
	writeSeg(env, core, segLo+0x6000, []byte("checkpoint-2"))
	checkpointSync(env, core, mech)

	// Simulate a crash mid-apply: in the surviving image, corrupt the
	// image and rewind the phase to TempValid; the temp buffer still
	// holds the payload.
	img := env.Mach.CrashImage()
	img.Write(seg.ImageBase+0x6000, []byte("GARBAGEGARBA"))
	img.WriteU64(seg.MetaBase+metaPhase, phaseTempValid)
	got := readRange(recoverProsper(img, seg), segLo+0x6000, segLo+0x6000+12)
	if !bytes.Equal(got, []byte("checkpoint-2")) {
		t.Fatalf("torn apply not repaired: %q", got)
	}
}

// Property: for arbitrary write sequences, after a checkpoint the Prosper
// NVM image of every dirtied granule equals the segment contents at
// checkpoint time, and recovery after a crash reproduces them.
func TestProsperCheckpointRecoveryProperty(t *testing.T) {
	f := func(writes []struct {
		Off uint16
		Val uint8
	}) bool {
		env, seg, core := newEnv(nil)
		mech := NewProsper(ProsperConfig{})()
		mech.Attach(env, seg)
		attachVMA(env, seg, core, mech)
		mech.OnScheduleIn(core, func() {})
		settle(env)
		mech.BeginInterval()
		for _, w := range writes {
			addr := segLo + uint64(w.Off)%0x10000
			core.Write(addr, []byte{w.Val, w.Val ^ 0xff}, nil)
		}
		settle(env)
		want := readRange(env, segLo, segLo+0x10008)
		checkpointSync(env, core, mech)

		got := readRange(recoverProsper(env.Mach.CrashImage(), seg), segLo, segLo+0x10008)
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestSSPStackInNVMIsSlower(t *testing.T) {
	// Sanity for the Fig 8 driver: the same store burst takes longer with
	// SSP (NVM stack) than with Prosper (DRAM stack).
	elapsed := map[string]sim.Time{}
	for _, name := range []string{"prosper", "ssp"} {
		env, seg, core := newEnv(t)
		mech := allMechanisms()[name]()
		mech.Attach(env, seg)
		attachVMA(env, seg, core, mech)
		mech.OnScheduleIn(core, func() {})
		settle(env)
		mech.BeginInterval()
		start := env.Mach.Eng.Now()
		// Write a burst spanning many lines so misses reach the device,
		// then measure when the store stream fully drains.
		accepted := 0
		allAccepted := false
		for i := 0; i < 512; i++ {
			core.Write(segLo+uint64(i)*mem.LineSize, []byte{1, 2, 3, 4, 5, 6, 7, 8}, func() {
				accepted++
				allAccepted = accepted == 512
			})
		}
		runUntilFlag(env, &allAccepted)
		drained := false
		core.DrainStores(func() { drained = true })
		runUntilFlag(env, &drained)
		elapsed[name] = env.Mach.Eng.Now() - start
		if s, ok := mech.(*SSP); ok {
			s.Detach()
		}
	}
	if elapsed["ssp"] <= elapsed["prosper"] {
		t.Fatalf("ssp (%d) should be slower than prosper (%d)", elapsed["ssp"], elapsed["prosper"])
	}
}

var _ cache.Port = (*cache.Cache)(nil) // compile-time interface check used by Env.Trackers wiring

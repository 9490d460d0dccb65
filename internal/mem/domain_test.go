package mem

import (
	"slices"
	"testing"

	"prosper/internal/sim"
)

// domainRig wires a Domain into a PCM device the way machine.New does:
// the shared Storage is the volatile view; the domain shadows the NVM
// range and tracks the device's write stream.
func domainRig(adr bool) (*sim.Engine, *Storage, *Domain, *Device) {
	eng := sim.NewEngine()
	st := NewStorage()
	dom := NewDomain(st, adr)
	dev := NewDevice(eng, PCMConfig())
	dev.SetPersistSink(dom)
	return eng, st, dom, dev
}

// A write is durable exactly when its timed device write completes — not
// when the functional bytes land, not when the device admits it.
func TestDomainLineDurability(t *testing.T) {
	eng, st, dom, dev := domainRig(false)
	st.WriteU64(NVMBase, 0xAABB)
	dev.Access(true, NVMBase, sim.Done{})
	if got := dom.CrashImage().ReadU64(NVMBase); got != 0 {
		t.Fatalf("in-flight write already durable: %#x", got)
	}
	if dom.PendingLines() != 1 {
		t.Fatalf("PendingLines = %d, want 1", dom.PendingLines())
	}
	eng.Run()
	if got := dom.CrashImage().ReadU64(NVMBase); got != 0xAABB {
		t.Fatalf("completed write not durable: %#x", got)
	}
	if dom.PendingLines() != 0 {
		t.Fatalf("PendingLines = %d after completion, want 0", dom.PendingLines())
	}
}

// ADR drains writes the device has already admitted, but bytes that never
// reached the device (still "in cache") are lost either way.
func TestDomainADRDrain(t *testing.T) {
	for _, adr := range []bool{false, true} {
		_, st, dom, dev := domainRig(adr)
		st.WriteU64(NVMBase, 0x11)          // admitted to the device
		st.WriteU64(NVMBase+LineSize, 0x22) // functional only, never issued
		dev.Access(true, NVMBase, sim.Done{})

		img := dom.CrashImage()
		admitted, cached := img.ReadU64(NVMBase), img.ReadU64(NVMBase+LineSize)
		if adr && admitted != 0x11 {
			t.Errorf("ADR: admitted write lost at power failure: %#x", admitted)
		}
		if !adr && admitted != 0 {
			t.Errorf("no-ADR: in-flight write survived: %#x", admitted)
		}
		if cached != 0 {
			t.Errorf("adr=%v: never-issued bytes survived the crash: %#x", adr, cached)
		}
	}
}

// A multi-line update can tear at line granularity: a crash between the
// two completions keeps the finished line and drops the other entirely —
// but a single line is never half old, half new.
func TestDomainLineTearing(t *testing.T) {
	eng, st, dom, dev := domainRig(false)
	lineA, lineB := uint64(NVMBase), uint64(NVMBase+LineSize)
	for off := uint64(0); off < LineSize; off += 8 {
		st.WriteU64(lineA+off, 0xA0A0)
		st.WriteU64(lineB+off, 0xB0B0)
	}
	dev.Access(true, lineA, sim.Done{})
	dev.Access(true, lineB, sim.Done{})
	// Different banks, bus-staggered starts: A completes at 1500, B at
	// 1520. Crash between the two.
	eng.RunUntil(1510)
	img := dom.CrashImage()
	for off := uint64(0); off < LineSize; off += 8 {
		if got := img.ReadU64(lineA + off); got != 0xA0A0 {
			t.Fatalf("completed line torn at +%d: %#x", off, got)
		}
		if got := img.ReadU64(lineB + off); got != 0 {
			t.Fatalf("unfinished line partially durable at +%d: %#x", off, got)
		}
	}
}

// Two in-flight writes of one line merge in admission order, so a crash
// between their completions sees the first value, never a reordering.
func TestDomainPerLineFIFO(t *testing.T) {
	eng, st, dom, dev := domainRig(false)
	st.WriteU64(NVMBase, 1)
	dev.Access(true, NVMBase, sim.Done{})
	st.WriteU64(NVMBase, 2)
	dev.Access(true, NVMBase, sim.Done{})
	// Same bank: first write completes at 1500, second at 900+1500.
	eng.RunUntil(2000)
	if got := dom.CrashImage().ReadU64(NVMBase); got != 1 {
		t.Fatalf("durable value between completions = %d, want first write (1)", got)
	}
	eng.Run()
	if got := dom.CrashImage().ReadU64(NVMBase); got != 2 {
		t.Fatalf("final durable value = %d, want 2", got)
	}
}

// Persist promotes small metadata ranges functionally — durable with no
// device traffic — without dragging neighbouring bytes along.
func TestDomainPersistMetadata(t *testing.T) {
	_, st, dom, _ := domainRig(false)
	st.WriteU64(NVMBase+64, 0xFEED)
	st.WriteU64(NVMBase+128, 0xBEEF)
	dom.Persist(NVMBase+64, 8)
	img := dom.CrashImage()
	if got := img.ReadU64(NVMBase + 64); got != 0xFEED {
		t.Fatalf("persisted metadata not durable: %#x", got)
	}
	if got := img.ReadU64(NVMBase + 128); got != 0 {
		t.Fatalf("Persist leaked neighbouring bytes: %#x", got)
	}
}

// CrashImage is a pure observer: taking an image must not disturb the
// live bytes, the pending set, or the eventual durability of in-flight
// writes.
func TestDomainCrashImagePure(t *testing.T) {
	eng, st, dom, dev := domainRig(false)
	st.WriteU64(NVMBase, 0x77)
	dev.Access(true, NVMBase, sim.Done{})
	img := dom.CrashImage()
	img.WriteU64(NVMBase, 0xDEAD) // scribbling on the image is harmless
	if dom.PendingLines() != 1 {
		t.Fatalf("CrashImage disturbed pending set: %d", dom.PendingLines())
	}
	if got := st.ReadU64(NVMBase); got != 0x77 {
		t.Fatalf("CrashImage disturbed live bytes: %#x", got)
	}
	eng.Run()
	if got := dom.CrashImage().ReadU64(NVMBase); got != 0x77 {
		t.Fatalf("in-flight write lost after imaging: %#x", got)
	}
}

// TestDomainJournalImages: a journal started with a write already in
// flight replays into the same image that RunUntil(c) then CrashImage
// leaves, at cycles on both sides of a completion and exactly on it,
// with several writes of one line in flight and a Persist in between,
// under both persistence domains. Cycles out of order, or past the
// recording's clock, panic.
func TestDomainJournalImages(t *testing.T) {
	for _, adr := range []bool{false, true} {
		eng, st, dom, dev := domainRig(adr)
		st.WriteU64(NVMBase, 1)
		dev.Access(true, NVMBase, sim.Done{}) // in flight when recording starts
		j := dom.Record(eng)
		write := func(addr, v uint64) {
			st.WriteU64(addr, v)
			dev.Access(true, addr, sim.Done{})
		}
		eng.Schedule(sim.CompMem, 100, func() { write(NVMBase, 2); write(NVMBase+LineSize, 3) })
		eng.Schedule(sim.CompMem, 700, func() {
			st.WriteU64(NVMBase+PageSize, 4)
			dom.Persist(NVMBase+PageSize, 8)
			write(NVMBase, 5)
		})
		cycles := []sim.Time{50, 1499, 1500, 1500, 1601, 2300, 4000}
		var want []*Storage
		for _, c := range cycles {
			eng.RunUntil(c)
			want = append(want, dom.CrashImage())
		}
		for i, img := range j.Images(cycles) {
			if !sameImage(img, want[i]) {
				t.Errorf("adr=%v: journal image at cycle %d differs from the crash image", adr, cycles[i])
			}
		}
		mustPanic := func(what string, cycles []sim.Time) {
			t.Helper()
			defer func() {
				if recover() == nil {
					t.Errorf("adr=%v: Images(%v) did not panic on %s", adr, cycles, what)
				}
			}()
			j.Images(cycles)
		}
		mustPanic("descending cycles", []sim.Time{1500, 1499})
		mustPanic("a cycle past the recording", []sim.Time{eng.Now() + 1})
	}
}

// sameImage reports whether two images back the same pages with the
// same bytes.
func sameImage(a, b *Storage) bool {
	if !slices.Equal(a.PageAddrs(), b.PageAddrs()) {
		return false
	}
	for _, base := range a.PageAddrs() {
		if *a.pages[base] != *b.pages[base] {
			return false
		}
	}
	return true
}

package mem

import (
	"strings"
	"testing"

	"prosper/internal/sim"
	"prosper/internal/snapbuf"
)

// truncationSweep asserts every strict prefix of data is rejected by
// load and that the full payload is accepted.
func truncationSweep(t *testing.T, data []byte, load func(*snapbuf.Reader) error) {
	t.Helper()
	if err := load(snapbuf.NewReader(data)); err != nil {
		t.Fatalf("full payload rejected: %v", err)
	}
	for n := 0; n < len(data); n++ {
		if err := load(snapbuf.NewReader(data[:n])); err == nil {
			t.Fatalf("load accepted a %d/%d-byte prefix", n, len(data))
		}
	}
}

func TestStorageSnapRoundTripAndTruncation(t *testing.T) {
	s := NewStorage()
	s.Write(0, []byte("page zero"))
	s.Write(3*PageSize+17, []byte("a later page"))
	w := snapbuf.NewWriter()
	s.SaveSnap(w)
	data := w.Bytes()

	fresh := NewStorage()
	if err := fresh.LoadSnap(snapbuf.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	w2 := snapbuf.NewWriter()
	fresh.SaveSnap(w2)
	if string(w2.Bytes()) != string(data) {
		t.Fatal("re-saved storage differs")
	}
	truncationSweep(t, data, func(r *snapbuf.Reader) error {
		return NewStorage().LoadSnap(r)
	})
}

func TestStorageSnapRejectsMalformedPage(t *testing.T) {
	for name, write := range map[string]func(*snapbuf.Writer){
		"unaligned base": func(w *snapbuf.Writer) {
			w.U64(1)
			w.U64(123) // not page-aligned
			w.Bytes8(make([]byte, PageSize))
		},
		"short page": func(w *snapbuf.Writer) {
			w.U64(1)
			w.U64(0)
			w.Bytes8(make([]byte, 16))
			// Padding past the per-record Count guard so the length check
			// itself is what rejects.
			w.Raw(make([]byte, 8+PageSize))
		},
	} {
		w := snapbuf.NewWriter()
		write(w)
		err := NewStorage().LoadSnap(snapbuf.NewReader(w.Bytes()))
		if err == nil || !strings.Contains(err.Error(), "malformed page record") {
			t.Errorf("%s: err = %v, want malformed-page rejection", name, err)
		}
	}
}

func TestFrameAllocatorSnapRoundTripAndMismatch(t *testing.T) {
	a := NewFrameAllocator(0x10000, 16*PageSize)
	_, _ = a.Alloc()
	_, _ = a.AllocContiguous(2)
	w := snapbuf.NewWriter()
	a.SaveSnap(w)
	data := w.Bytes()

	truncationSweep(t, data, func(r *snapbuf.Reader) error {
		return NewFrameAllocator(0x10000, 16*PageSize).LoadSnap(r)
	})
	fresh := NewFrameAllocator(0x10000, 16*PageSize)
	if err := fresh.LoadSnap(snapbuf.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	w2 := snapbuf.NewWriter()
	fresh.SaveSnap(w2)
	if string(w2.Bytes()) != string(data) {
		t.Fatal("re-saved allocator differs")
	}

	err := NewFrameAllocator(0x20000, 16*PageSize).LoadSnap(snapbuf.NewReader(data))
	if err == nil || !strings.Contains(err.Error(), "allocator range mismatch") {
		t.Fatalf("err = %v, want range-mismatch rejection", err)
	}

	past := snapbuf.NewWriter()
	past.U64(0x10000)
	past.U64(16 * PageSize)
	past.U64(0x10000 + 17*PageSize)
	err = NewFrameAllocator(0x10000, 16*PageSize).LoadSnap(snapbuf.NewReader(past.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "allocator cursor") {
		t.Fatalf("err = %v, want cursor-range rejection", err)
	}
}

func TestDomainSnapRoundTripAndMismatch(t *testing.T) {
	live := NewStorage()
	d := NewDomain(live, true)
	d.durable.Write(64, []byte("durable line"))
	var snap lineSnap
	copy(snap[:], "in flight")
	d.pending[128] = []lineSnap{snap, snap}
	w := snapbuf.NewWriter()
	d.SaveSnap(w)
	data := w.Bytes()

	truncationSweep(t, data, func(r *snapbuf.Reader) error {
		return NewDomain(NewStorage(), true).LoadSnap(r)
	})
	fresh := NewDomain(NewStorage(), true)
	if err := fresh.LoadSnap(snapbuf.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	w2 := snapbuf.NewWriter()
	fresh.SaveSnap(w2)
	if string(w2.Bytes()) != string(data) {
		t.Fatal("re-saved domain differs")
	}

	err := NewDomain(NewStorage(), false).LoadSnap(snapbuf.NewReader(data))
	if err == nil || !strings.Contains(err.Error(), "ADR mismatch") {
		t.Fatalf("err = %v, want ADR-mismatch rejection", err)
	}
}

func TestDomainSnapRejectsMalformedLine(t *testing.T) {
	w := snapbuf.NewWriter()
	w.Bool(false)            // adr
	w.U64(0)                 // durable: zero pages
	w.U64(1)                 // one pending line
	w.U64(64)                // line address
	w.U64(1)                 // one queued snapshot
	w.Bytes8([]byte{1, 2})   // wrong length
	w.Raw(make([]byte, 128)) // padding past the Count guard
	err := NewDomain(NewStorage(), false).LoadSnap(snapbuf.NewReader(w.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "malformed line snapshot") {
		t.Fatalf("err = %v, want malformed-line rejection", err)
	}
}

// snapDevice builds a device with in-flight state: a busy bank, a
// stalled admission queue, and a scheduled completion batch — the shape
// a checkpoint-commit snapshot actually sees.
func snapDevice(t *testing.T, eng *sim.Engine) *Device {
	t.Helper()
	d := NewDevice(eng, DeviceConfig{
		Name: "snapnvm", Banks: 1, ReadBuffer: 1, WriteBuffer: 1,
		ReadLatency: 100, WriteLatency: 200, BankBusyRead: 100, BankBusyWrite: 200,
	})
	d.Access(false, 0, sim.KeyedThunk(sim.CompMem, 0x42<<56|1, func() {}))
	d.Access(true, 64, sim.KeyedThunk(sim.CompMem, 0x42<<56|2, func() {}))
	d.Access(false, 128, sim.KeyedThunk(sim.CompMem, 0x42<<56|3, func() {}))
	return d
}

func snapDeviceReg() map[uint64]sim.Done {
	reg := make(map[uint64]sim.Done)
	for i := uint64(1); i <= 3; i++ {
		reg[0x42<<56|i] = sim.KeyedThunk(sim.CompMem, 0x42<<56|i, func() {})
	}
	return reg
}

func TestDeviceSnapRoundTripAndTruncation(t *testing.T) {
	eng := sim.NewEngine()
	d := snapDevice(t, eng)
	w := snapbuf.NewWriter()
	var claims sim.EventClaims
	if err := d.SaveSnap(w, &claims); err != nil {
		t.Fatal(err)
	}
	data := w.Bytes()

	loadEng := sim.NewEngine()
	truncationSweep(t, data, func(r *snapbuf.Reader) error {
		return snapDevice(t, loadEng).LoadSnap(r, snapDeviceReg())
	})

	fresh := snapDevice(t, sim.NewEngine())
	if err := fresh.LoadSnap(snapbuf.NewReader(data), snapDeviceReg()); err != nil {
		t.Fatal(err)
	}
	w2 := snapbuf.NewWriter()
	var claims2 sim.EventClaims
	if err := fresh.SaveSnap(w2, &claims2); err != nil {
		t.Fatal(err)
	}
	if string(w2.Bytes()) != string(data) {
		t.Fatal("re-saved device differs")
	}
}

func TestDeviceSnapRejectsUnkeyedDone(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, DeviceConfig{Name: "nvm", Banks: 1, ReadBuffer: 1, ReadLatency: 100, BankBusyRead: 100})
	d.Access(false, 0, sim.Thunk(sim.CompMem, func() {}))
	d.Access(false, 64, sim.Thunk(sim.CompMem, func() {})) // stalls in the admission queue
	w := snapbuf.NewWriter()
	var claims sim.EventClaims
	if err := d.SaveSnap(w, &claims); err == nil {
		t.Fatal("SaveSnap accepted an unkeyed parked continuation")
	}
}

func TestDeviceSnapRejectsMismatchedBoot(t *testing.T) {
	eng := sim.NewEngine()
	d := snapDevice(t, eng)
	w := snapbuf.NewWriter()
	var claims sim.EventClaims
	if err := d.SaveSnap(w, &claims); err != nil {
		t.Fatal(err)
	}
	data := w.Bytes()

	wrongName := NewDevice(sim.NewEngine(), DeviceConfig{Name: "dram", Banks: 1})
	if err := wrongName.LoadSnap(snapbuf.NewReader(data), snapDeviceReg()); err == nil ||
		!strings.Contains(err.Error(), "device mismatch") {
		t.Fatalf("err = %v, want device-name rejection", err)
	}
	wrongBanks := NewDevice(sim.NewEngine(), DeviceConfig{Name: "snapnvm", Banks: 4})
	if err := wrongBanks.LoadSnap(snapbuf.NewReader(data), snapDeviceReg()); err == nil ||
		!strings.Contains(err.Error(), "bank count mismatch") {
		t.Fatalf("err = %v, want bank-count rejection", err)
	}
	emptyReg := NewDevice(sim.NewEngine(), DeviceConfig{Name: "snapnvm", Banks: 1})
	if err := emptyReg.LoadSnap(snapbuf.NewReader(data), map[uint64]sim.Done{}); err == nil {
		t.Fatal("LoadSnap resolved a resume key from an empty registry")
	}
}

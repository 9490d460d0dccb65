package mem

import (
	"testing"

	"prosper/internal/sim"
)

// toyConfig is a small device for exact backpressure arithmetic: two
// banks, tiny buffers, unit bus cost.
func toyConfig() DeviceConfig {
	return DeviceConfig{
		Name:          "toy",
		ReadLatency:   10,
		WriteLatency:  20,
		Banks:         2,
		BankBusyRead:  5,
		BankBusyWrite: 5,
		BusPerAccess:  1,
		ReadBuffer:    2,
		WriteBuffer:   1,
	}
}

// Buffer-limit accounting across device shapes. Every access is issued at
// cycle 0, before any completion can free a slot, so the stall count is
// exactly the admissions beyond each class's buffer, the queue depths
// equal the offered load, and everything still completes once the engine
// runs the backlog down.
func TestDeviceBackpressureTable(t *testing.T) {
	cases := []struct {
		name          string
		cfg           DeviceConfig
		reads, writes int
		wantStalls    uint64
	}{
		{"dram unlimited buffers", DDR4Config(), 100, 100, 0},
		{"nvm write buffer saturated", PCMConfig(), 0, 60, 60 - 48},
		{"nvm read buffer saturated", PCMConfig(), 80, 0, 80 - 64},
		{"nvm both classes over", PCMConfig(), 80, 60, (80 - 64) + (60 - 48)},
		{"nvm under both limits", PCMConfig(), 64, 48, 0},
		{"toy tiny buffers", toyConfig(), 5, 4, (5 - 2) + (4 - 1)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			d := NewDevice(eng, tc.cfg)
			completed := 0
			for i := 0; i < tc.reads; i++ {
				d.Access(false, uint64(i)*LineSize, sim.Thunk(sim.CompMem, func() { completed++ }))
			}
			for i := 0; i < tc.writes; i++ {
				d.Access(true, uint64(tc.reads+i)*LineSize, sim.Thunk(sim.CompMem, func() { completed++ }))
			}

			if got := d.Counters.Get(tc.cfg.Name + ".buffer_stalls"); got != tc.wantStalls {
				t.Errorf("buffer_stalls = %d, want %d", got, tc.wantStalls)
			}
			if got := d.ReadQueueDepth(); got != tc.reads {
				t.Errorf("ReadQueueDepth = %d, want %d", got, tc.reads)
			}
			if got := d.WriteQueueDepth(); got != tc.writes {
				t.Errorf("WriteQueueDepth = %d, want %d", got, tc.writes)
			}
			if tc.reads+tc.writes > 0 {
				if w := d.EstimatedWait(); w <= 0 {
					t.Errorf("EstimatedWait = %d under backlog, want > 0", w)
				}
			}

			eng.Run()
			if completed != tc.reads+tc.writes {
				t.Errorf("completed = %d, want %d", completed, tc.reads+tc.writes)
			}
			if d.ReadQueueDepth() != 0 || d.WriteQueueDepth() != 0 {
				t.Errorf("queues not drained: reads %d writes %d", d.ReadQueueDepth(), d.WriteQueueDepth())
			}
			if w := d.EstimatedWait(); w != 0 {
				t.Errorf("EstimatedWait = %d when idle, want 0", w)
			}
		})
	}
}

// EstimatedWait must grow with the backlog: a device under a deep write
// burst must predict a longer queueing delay than one with a single
// in-flight write.
func TestEstimatedWaitTracksBacklog(t *testing.T) {
	shallow := func(n int) sim.Time {
		eng := sim.NewEngine()
		d := NewDevice(eng, PCMConfig())
		for i := 0; i < n; i++ {
			d.Access(true, NVMBase+uint64(i)*LineSize, sim.Done{})
		}
		return d.EstimatedWait()
	}
	one, many := shallow(1), shallow(200)
	if many <= one {
		t.Fatalf("EstimatedWait(200 writes) = %d not above EstimatedWait(1 write) = %d", many, one)
	}
}

// Stalled accesses must drain in admission order as slots free up, never
// starving: with a 1-entry write buffer, completions release exactly one
// waiter at a time and all still finish.
func TestBackpressureDrainOrder(t *testing.T) {
	eng := sim.NewEngine()
	cfg := toyConfig()
	cfg.WriteBuffer = 1
	d := NewDevice(eng, cfg)
	var order []int
	for i := 0; i < 6; i++ {
		i := i
		d.Access(true, uint64(i)*LineSize, sim.Thunk(sim.CompMem, func() { order = append(order, i) }))
	}
	eng.Run()
	if len(order) != 6 {
		t.Fatalf("completed %d of 6 writes", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("completion order %v, want FIFO", order)
		}
	}
}

// TestDeviceLatencyHistograms checks the wait/service distributions: an
// uncontended access waits zero cycles and completes in the configured
// latency; a bank-conflicting access records its queueing wait.
func TestDeviceLatencyHistograms(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, DeviceConfig{
		Name: "dev", ReadLatency: 100, WriteLatency: 200,
		Banks: 2, BankBusyRead: 80, BankBusyWrite: 80,
	})
	// Two reads to the same bank: the second waits out the bank busy time.
	d.Access(false, 0, sim.Done{})
	d.Access(false, uint64(2*LineSize), sim.Done{}) // same bank (banks=2)
	eng.Run()

	rw := d.Histograms.Get("read_wait")
	if rw.Count() != 2 || rw.Min() != 0 || rw.Max() != 80 {
		t.Fatalf("read_wait count/min/max = %d/%d/%d, want 2/0/80",
			rw.Count(), rw.Min(), rw.Max())
	}
	bw := d.Histograms.Get("bank_wait")
	if bw.Count() != 2 || bw.Max() != 80 {
		t.Fatalf("bank_wait count/max = %d/%d, want 2/80", bw.Count(), bw.Max())
	}
	rl := d.Histograms.Get("read_latency")
	if rl.Min() != 100 || rl.Max() != 180 {
		t.Fatalf("read_latency min/max = %d/%d, want 100/180", rl.Min(), rl.Max())
	}
	d.Access(true, uint64(LineSize), sim.Done{}) // other bank, uncontended write
	eng.Run()
	wl := d.Histograms.Get("write_latency")
	if wl.Count() != 1 || wl.Min() != 200 {
		t.Fatalf("write_latency count/min = %d/%d, want 1/200", wl.Count(), wl.Min())
	}
	if d.Histograms.Get("write_wait").Max() != 0 {
		t.Fatalf("uncontended write must record zero wait")
	}
}

// TestDeviceWaitQueueStaysCompact: under sustained backpressure the
// admission queue never drains, yet its backing must stay near the peak
// queue depth rather than grow with every access ever parked, and the
// waiters must still be served first in, first out. Every completion
// issues one more write, so depth writes stay queued behind the single
// write-buffer slot for the whole run; each write then starts when the
// one before it completes and finishes WriteLatency later.
func TestDeviceWaitQueueStaysCompact(t *testing.T) {
	const depth, total = 16, 2000
	cfg := toyConfig()
	eng := sim.NewEngine()
	d := NewDevice(eng, cfg)
	issued, peak, maxBacking := 0, 0, 0
	var order []uint64
	var cycles []sim.Time
	var issue func()
	issue = func() {
		addr := uint64(issued) * LineSize
		issued++
		d.Access(true, addr, sim.Thunk(sim.CompMem, func() {
			order = append(order, addr)
			cycles = append(cycles, eng.Now())
			if issued < total {
				issue()
			}
			peak = max(peak, len(d.waiting)-d.waitHead)
			maxBacking = max(maxBacking, len(d.waiting))
		}))
	}
	for range depth + 1 {
		issue()
	}
	eng.Run()
	if len(order) != total {
		t.Fatalf("completed %d writes, want %d", len(order), total)
	}
	for i, addr := range order {
		if addr != uint64(i)*LineSize {
			t.Fatalf("completion %d was write %d: not first in, first out", i, addr/LineSize)
		}
		if want := sim.Time(i+1) * cfg.WriteLatency; cycles[i] != want {
			t.Fatalf("write %d completed at cycle %d, want %d", i, cycles[i], want)
		}
	}
	if peak != depth {
		t.Fatalf("peak queue depth %d, want %d", peak, depth)
	}
	if maxBacking > 2*peak+1 {
		t.Fatalf("queue backing reached %d entries for a peak depth of %d", maxBacking, peak)
	}
}

package kernel

import (
	"testing"

	"prosper/internal/machine"
	"prosper/internal/mem"
	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/workload"
)

// NVM-resident mechanisms (SSP, Romulus) place the stack's working pages
// in NVM, so the committed bytes survive a power failure in place — but
// only once the persistence hardware has actually written them to the
// media. At the instant a checkpoint commits, the crash image must hold
// the committed stack: for SSP the main frames themselves (every modified
// line was written back), for Romulus the backup twin in the image area
// (the replay completed before the commit).
func TestNVMResidentStackSurvivesCrash(t *testing.T) {
	for _, mechName := range []string{"ssp", "romulus"} {
		mechName := mechName
		t.Run(mechName, func(t *testing.T) {
			var factory persist.Factory
			if mechName == "ssp" {
				factory = persist.NewSSP(persist.SSPConfig{ConsolidationInterval: 100 * sim.Microsecond})
			} else {
				factory = persist.NewRomulus()
			}
			k := New(Config{Machine: machine.Config{Cores: 1}})
			p := k.Spawn(ProcessConfig{
				Name:      "nvmres-" + mechName,
				StackMech: factory,
				Seed:      6,
			}, workload.NewRandom(workload.MicroParams{ArrayBytes: 8 << 10, WritesPerRun: 64}))
			k.RunFor(50 * sim.Microsecond)

			th := p.Threads[0]
			// Every mapped stack page must be in NVM.
			var stackVAs []uint64
			for va := th.StackSeg.Lo; va < th.StackSeg.Hi; va += mem.PageSize {
				if paddr, _, ok := p.AS.PT.Translate(va); ok {
					if !mem.IsNVM(paddr) {
						t.Fatalf("stack page %#x in DRAM (%#x) under %s", va, paddr, mechName)
					}
					stackVAs = append(stackVAs, va)
				}
			}
			if len(stackVAs) == 0 {
				t.Fatal("no stack pages mapped")
			}

			// Checkpoint; the done callback fires at commit while the
			// thread is still quiesced, so the functional stack equals
			// the committed epoch exactly there.
			committed := false
			p.Checkpoint(func() {
				committed = true
				img := k.Mach.CrashImage()
				live := make([]byte, mem.PageSize)
				durable := make([]byte, mem.PageSize)
				for _, va := range stackVAs {
					paddr, _, ok := p.AS.PT.Translate(va)
					if !ok {
						t.Fatalf("stack page %#x unmapped at commit", va)
					}
					k.Mach.Storage.Read(paddr, live)
					switch mechName {
					case "ssp":
						img.Read(paddr, durable)
					case "romulus":
						img.Read(th.StackSeg.ImageBase+(va-th.StackSeg.Lo), durable)
					}
					for i := range live {
						if live[i] != durable[i] {
							t.Fatalf("%s: committed stack byte %#x+%d not durable at commit", mechName, va, i)
						}
					}
				}
			})
			// Romulus replays its whole store log entry by entry, so give
			// the commit plenty of simulated time.
			k.RunFor(5000 * sim.Microsecond)
			if !committed {
				t.Fatal("checkpoint never committed")
			}
			p.Shutdown()
		})
	}
}

// Prosper/Dirtybit place the stack in DRAM: the working pages must be in
// DRAM (that is their performance advantage) and must NOT survive the
// crash — recovery must come from the NVM image instead.
func TestDRAMResidentStackDropsAtCrash(t *testing.T) {
	k := New(Config{Machine: machine.Config{Cores: 1}})
	p := k.Spawn(ProcessConfig{
		Name:      "dramres",
		StackMech: persist.NewProsper(persist.ProsperConfig{}),
		Seed:      6,
	}, workload.NewRandom(workload.MicroParams{ArrayBytes: 8 << 10, WritesPerRun: 64}))
	k.RunFor(200 * sim.Microsecond)
	th := p.Threads[0]
	// Find a stack page with non-zero (written) content; all mapped
	// stack pages must be DRAM-resident.
	var dirtyPage uint64
	page := make([]byte, mem.PageSize)
	for va := th.StackSeg.Lo; va < th.StackSeg.Hi; va += mem.PageSize {
		paddr, _, ok := p.AS.PT.Translate(va)
		if !ok {
			continue
		}
		if !mem.IsDRAM(paddr) {
			t.Fatalf("prosper stack page %#x not in DRAM", paddr)
		}
		if dirtyPage == 0 {
			k.Mach.Storage.Read(paddr, page)
			for _, b := range page {
				if b != 0 {
					dirtyPage = paddr
					break
				}
			}
		}
	}
	if dirtyPage == 0 {
		t.Fatal("no written stack page found before crash")
	}
	p.Shutdown()
	after := make([]byte, mem.PageSize)
	k.Mach.CrashImage().Read(dirtyPage, after)
	for _, b := range after {
		if b != 0 {
			t.Fatal("DRAM stack bytes survived the crash")
		}
	}
}

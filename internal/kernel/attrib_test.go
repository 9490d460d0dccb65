package kernel

import (
	"testing"

	"prosper/internal/machine"
	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/workload"
)

// TestPauseAttributionInvariant checks the stall-attribution sum
// invariant for every stack mechanism, whose thread stacks checkpoint
// sequentially: each completed epoch's per-cause cycle counts
// must sum exactly to the measured stop-the-world pause — the attribution
// register charges every cycle between quiesce start and commit
// completion to exactly one named cause. A recovered process must keep
// the invariant: it checkpoints on after RecoverProcess.
func TestPauseAttributionInvariant(t *testing.T) {
	mechs := []struct {
		name string
		mk   func() persist.Factory
		run  sim.Time
	}{
		{"prosper", func() persist.Factory { return persist.NewProsper(persist.ProsperConfig{}) }, 800 * sim.Microsecond},
		{"dirtybit", func() persist.Factory { return persist.NewDirtybit(persist.DirtybitConfig{}) }, 800 * sim.Microsecond},
		{"ssp", func() persist.Factory { return persist.NewSSP(persist.SSPConfig{}) }, 800 * sim.Microsecond},
		// Romulus replays its log uncoalesced, so one epoch takes far
		// longer than the other mechanisms' (milliseconds for a 150 µs
		// interval's log).
		{"romulus", func() persist.Factory { return persist.NewRomulus() }, 25 * sim.Millisecond},
	}
	for _, m := range mechs {
		m := m
		cfg := ProcessConfig{
			Name:               "attrib",
			StackMech:          m.mk(),
			CheckpointInterval: 150 * sim.Microsecond,
			Seed:               11,
		}
		progs := func() []workload.Program {
			return []workload.Program{
				workload.NewRandom(workload.MicroParams{ArrayBytes: 16 << 10, WritesPerRun: 96}),
				workload.NewRandom(workload.MicroParams{ArrayBytes: 16 << 10, WritesPerRun: 96}),
			}
		}
		kcfg := Config{Machine: machine.Config{Cores: 2}, Quantum: 200 * sim.Microsecond}
		t.Run(m.name+"/sequential", func(t *testing.T) {
			k := New(kcfg)
			p := k.Spawn(cfg, progs()...)
			k.RunFor(m.run)
			p.Shutdown()
			checkPauseAttribution(t, p)
		})
		t.Run(m.name+"/recovered", func(t *testing.T) {
			k := New(kcfg)
			k.Spawn(cfg, progs()...)
			k.RunFor(m.run)
			kcfg := kcfg
			kcfg.Machine.Storage = k.Mach.CrashImage()
			k2 := New(kcfg)
			p, err := k2.RecoverProcess(cfg, progs())
			if err != nil {
				t.Fatal(err)
			}
			k2.RunFor(m.run)
			p.Shutdown()
			checkPauseAttribution(t, p)
		})
	}
}

// checkPauseAttribution requires recorded epochs whose causes sum to
// their nonzero pauses, with quiesce and commit_fence charged.
func checkPauseAttribution(t *testing.T, p *Process) {
	t.Helper()
	if len(p.EpochPauses) == 0 {
		t.Fatal("no checkpoint epochs recorded")
	}
	for _, ep := range p.EpochPauses {
		var sum uint64
		for _, v := range ep.Causes {
			sum += v
		}
		if sum != uint64(ep.Pause) {
			t.Errorf("epoch %d: causes sum %d != pause %d (%+v)",
				ep.Seq, sum, ep.Pause, ep.Causes)
		}
		if ep.Pause == 0 {
			t.Errorf("epoch %d: zero pause", ep.Seq)
		}
	}
	// The checkpoint engine itself must have charged the
	// bracketing causes for every mechanism.
	var total [persist.NumCauses]uint64
	for _, ep := range p.EpochPauses {
		for c, v := range ep.Causes {
			total[c] += v
		}
	}
	if total[persist.CauseQuiesce] == 0 {
		t.Error("no cycles attributed to quiesce")
	}
	if total[persist.CauseCommitFence] == 0 {
		t.Error("no cycles attributed to commit_fence")
	}
}

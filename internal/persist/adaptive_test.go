package persist

import (
	"bytes"
	"testing"

	"prosper/internal/mem"
)

func adaptiveEnv(t *testing.T) (*Env, Segment, *AdaptiveProsper) {
	t.Helper()
	env, seg, core := newEnv(t)
	mech := NewAdaptiveProsper(AdaptiveConfig{})().(*AdaptiveProsper)
	mech.Attach(env, seg)
	attachVMA(env, seg, core, mech)
	mech.OnScheduleIn(core, func() {})
	settle(env)
	mech.BeginInterval()
	t.Cleanup(func() { _ = core })
	return env, seg, mech
}

func adaptiveCheckpoint(t *testing.T, env *Env, mech *AdaptiveProsper) Result {
	t.Helper()
	core := env.Mach.Cores[0]
	return checkpointSync(env, core, mech)
}

func TestAdaptiveStartsAtMinGran(t *testing.T) {
	_, _, mech := adaptiveEnv(t)
	if mech.Gran() != 8 {
		t.Fatalf("initial gran = %d", mech.Gran())
	}
}

func TestAdaptiveEscalatesOnDenseIntervals(t *testing.T) {
	env, _, mech := adaptiveEnv(t)
	core := env.Mach.Cores[0]
	// Stream-like: every byte of a 16 KiB window dirty, repeatedly.
	for ckpt := 0; ckpt < 6; ckpt++ {
		for off := uint64(0); off < 16<<10; off += 64 {
			writeSeg(env, core, segLo+off, bytes.Repeat([]byte{1}, 64))
		}
		adaptiveCheckpoint(t, env, mech)
	}
	if mech.Gran() <= 8 {
		t.Fatalf("gran = %d after dense intervals, expected escalation", mech.Gran())
	}
	if mech.Counters.Get("adaptive.escalations") == 0 {
		t.Fatal("no escalations counted")
	}
}

func TestAdaptiveRefinesBackOnSparseIntervals(t *testing.T) {
	env, _, mech := adaptiveEnv(t)
	core := env.Mach.Cores[0]
	// Dense phase to escalate.
	for ckpt := 0; ckpt < 4; ckpt++ {
		for off := uint64(0); off < 16<<10; off += 64 {
			writeSeg(env, core, segLo+off, bytes.Repeat([]byte{1}, 64))
		}
		adaptiveCheckpoint(t, env, mech)
	}
	escalated := mech.Gran()
	if escalated <= 8 {
		t.Fatalf("escalation did not happen (gran=%d)", escalated)
	}
	// Sparse phase: 8 bytes per page over a wide window.
	for ckpt := 0; ckpt < 8; ckpt++ {
		for pg := uint64(0); pg < 16; pg++ {
			writeSeg(env, core, segLo+pg*mem.PageSize, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		}
		adaptiveCheckpoint(t, env, mech)
	}
	if mech.Gran() >= escalated {
		t.Fatalf("gran = %d did not refine from %d on sparse intervals", mech.Gran(), escalated)
	}
}

func TestAdaptiveRespectsBounds(t *testing.T) {
	env, _, mech := adaptiveEnv(t)
	core := env.Mach.Cores[0]
	for ckpt := 0; ckpt < 20; ckpt++ {
		for off := uint64(0); off < 8<<10; off += 64 {
			writeSeg(env, core, segLo+off, bytes.Repeat([]byte{1}, 64))
		}
		adaptiveCheckpoint(t, env, mech)
	}
	if mech.Gran() > 4096 {
		t.Fatalf("gran = %d beyond maxGran", mech.Gran())
	}
}

func TestAdaptiveCorrectnessAcrossGranChanges(t *testing.T) {
	// Escalate, then verify a later checkpoint still lands the right
	// bytes in the image (coarser granules copy supersets, never wrong
	// data).
	env, seg, mech := adaptiveEnv(t)
	core := env.Mach.Cores[0]
	for ckpt := 0; ckpt < 4; ckpt++ {
		for off := uint64(0); off < 16<<10; off += 64 {
			writeSeg(env, core, segLo+off, bytes.Repeat([]byte{byte(ckpt)}, 64))
		}
		adaptiveCheckpoint(t, env, mech)
	}
	writeSeg(env, core, segLo+0x9000, []byte("after escalation"))
	adaptiveCheckpoint(t, env, mech)
	got := make([]byte, 16)
	env.Mach.Storage.Read(seg.ImageBase+0x9000, got)
	if !bytes.Equal(got, []byte("after escalation")) {
		t.Fatalf("image after granularity change = %q", got)
	}
}

func TestAdaptiveIdleIntervalKeepsGran(t *testing.T) {
	env, _, mech := adaptiveEnv(t)
	before := mech.Gran()
	adaptiveCheckpoint(t, env, mech) // nothing dirty
	if mech.Gran() != before {
		t.Fatal("idle interval changed granularity")
	}
}

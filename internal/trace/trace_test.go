package trace

import (
	"testing"

	"prosper/internal/sim"
	"prosper/internal/workload"
)

func captureApp(params workload.AppParams, ops int) *Trace {
	cfg := DefaultCaptureConfig()
	cfg.MaxOps = ops
	return Capture(workload.NewApp(params), cfg)
}

func TestCaptureBasics(t *testing.T) {
	tr := captureApp(workload.GapbsPR(), 20000)
	if len(tr.Records) != 20000 {
		t.Fatalf("records = %d", len(tr.Records))
	}
	if tr.StackLo >= tr.StackHi {
		t.Fatal("stack extent not tracked")
	}
	last := sim.Time(0)
	for i, r := range tr.Records {
		if r.Time < last {
			t.Fatalf("record %d: time went backwards", i)
		}
		last = r.Time
	}
}

func TestBreakdownFig1Shape(t *testing.T) {
	// The Fig 1 headline: Gapbs_pr is stack-dominated (~70%), Ycsb_mem is
	// heap-dominated (~15% stack).
	gap := Breakdown(captureApp(workload.GapbsPR(), 60000))
	ycsb := Breakdown(captureApp(workload.YcsbMem(), 60000))
	if f := gap.StackFraction(); f < 0.6 || f > 0.8 {
		t.Fatalf("gapbs stack fraction = %.3f", f)
	}
	if f := ycsb.StackFraction(); f < 0.08 || f > 0.25 {
		t.Fatalf("ycsb stack fraction = %.3f", f)
	}
	if gap.StackWrites == 0 || gap.HeapReads == 0 {
		t.Fatal("breakdown missing categories")
	}
}

func TestIntervalsPartitionTrace(t *testing.T) {
	tr := captureApp(workload.YcsbMem(), 30000)
	stats := Intervals(tr, tr.Duration()/10+1)
	var writes uint64
	for _, s := range stats {
		writes += s.StackWrites
		if s.BeyondFinalSP > s.StackWrites {
			t.Fatal("beyond-SP exceeds total writes")
		}
	}
	b := Breakdown(tr)
	if writes != b.StackWrites {
		t.Fatalf("interval writes %d != breakdown %d", writes, b.StackWrites)
	}
}

func TestBeyondSPFractionFig2(t *testing.T) {
	// Ycsb_mem: paper reports on average more than 36% of stack writes
	// beyond the final SP; our calibrated model should land in a band
	// around that, and clearly above Gapbs_pr's.
	ycsbTr := captureApp(workload.YcsbMem(), 150000)
	gapTr := captureApp(workload.GapbsPR(), 150000)
	interval := ycsbTr.Duration() / 20
	ycsb := BeyondSPFraction(ycsbTr, interval)
	gap := BeyondSPFraction(gapTr, gapTr.Duration()/20)
	if ycsb < 0.20 || ycsb > 0.60 {
		t.Fatalf("ycsb beyond-SP fraction = %.3f, want ~0.36", ycsb)
	}
	if gap >= ycsb {
		t.Fatalf("gapbs (%.3f) should churn less than ycsb (%.3f)", gap, ycsb)
	}
}

func TestCheckpointSizesGranularityMonotone(t *testing.T) {
	tr := captureApp(workload.G500SSSP(), 50000)
	interval := tr.Duration() / 5
	var prev uint64
	for _, gran := range []uint64{8, 64, 4096} {
		cs := CheckpointSizes(tr, interval, gran)
		if cs.TotalBytes < prev {
			t.Fatalf("checkpoint size decreased at gran %d", gran)
		}
		prev = cs.TotalBytes
	}
}

func TestReductionFactorFig4Ordering(t *testing.T) {
	// Paper Fig 4: reduction factors 300x (gapbs) > 56x (sssp) > 33x (ycsb).
	// We require the ordering and a sane magnitude band rather than exact
	// values (the traces are synthetic).
	interval := sim.Time(30000)
	gap := ReductionFactor(captureApp(workload.GapbsPR(), 120000), interval, 8)
	sssp := ReductionFactor(captureApp(workload.G500SSSP(), 120000), interval, 8)
	ycsb := ReductionFactor(captureApp(workload.YcsbMem(), 120000), interval, 8)
	if !(gap > sssp && sssp > ycsb) {
		t.Fatalf("reduction ordering violated: gap=%.1f sssp=%.1f ycsb=%.1f", gap, sssp, ycsb)
	}
	if gap < 20 {
		t.Fatalf("gapbs reduction = %.1f, expected large", gap)
	}
	if ycsb < 4 {
		t.Fatalf("ycsb reduction = %.1f, expected > 4", ycsb)
	}
}

func TestReplayMechanismOrdering(t *testing.T) {
	tr := captureApp(workload.GapbsPR(), 60000)
	interval := tr.Duration() / 10
	costs := DefaultReplayCosts()
	base := Replay(tr, MechNone, false, interval, costs)
	flush := Replay(tr, MechFlush, false, interval, costs)
	undo := Replay(tr, MechUndo, false, interval, costs)
	if base.PersistOps != 0 {
		t.Fatal("baseline performed persistence ops")
	}
	if flush.Cycles <= base.Cycles {
		t.Fatal("flush should cost more than baseline")
	}
	if undo.Cycles <= flush.Cycles {
		t.Fatal("undo (read+log+write) should cost more than flush")
	}
}

func TestReplaySPAwarenessHelps(t *testing.T) {
	tr := captureApp(workload.YcsbMem(), 120000)
	interval := tr.Duration() / 20
	costs := DefaultReplayCosts()
	for _, mech := range []string{MechFlush, MechUndo, MechRedo} {
		unaware := Replay(tr, mech, false, interval, costs)
		aware := Replay(tr, mech, true, interval, costs)
		if aware.Cycles >= unaware.Cycles {
			t.Fatalf("%s: SP awareness did not help (%d vs %d)", mech, aware.Cycles, unaware.Cycles)
		}
		if aware.PersistOps >= unaware.PersistOps {
			t.Fatalf("%s: persist ops not reduced", mech)
		}
	}
}

func TestReplayNormalizedBaselineIsOne(t *testing.T) {
	tr := captureApp(workload.G500SSSP(), 30000)
	v := ReplayNormalized(tr, MechNone, false, tr.Duration()/5, DefaultReplayCosts())
	if v != 1.0 {
		t.Fatalf("normalized baseline = %f", v)
	}
	slow := ReplayNormalized(tr, MechFlush, false, tr.Duration()/5, DefaultReplayCosts())
	if slow < 2 {
		t.Fatalf("flush slowdown = %.2f, expected substantial", slow)
	}
}

func TestEmptyTraceAnalyses(t *testing.T) {
	tr := &Trace{StackHi: 100, StackLo: 100}
	if Intervals(tr, 10) != nil {
		t.Fatal("intervals of empty trace")
	}
	if BeyondSPFraction(tr, 10) != 0 {
		t.Fatal("beyond-SP of empty trace")
	}
	cs := CheckpointSizes(tr, 10, 8)
	if cs.TotalBytes != 0 {
		t.Fatal("checkpoint size of empty trace")
	}
	if Breakdown(tr).Total() != 0 {
		t.Fatal("breakdown of empty trace")
	}
}

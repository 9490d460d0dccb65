package experiments

import (
	"strings"
	"testing"

	"prosper/internal/persist"
	"prosper/internal/sim"
)

// The experiment tests run at TestScale and assert the *shape* of each
// figure (who wins, direction of trends), not absolute values — the same
// validity criterion the reproduction targets (DESIGN.md §5).

// perfScale is used by the Fig 8/9 shape tests: the checkpoint interval
// must be long enough to amortize the fixed crash-consistency floor
// (serialized NVM commit writes) that every checkpoint-based mechanism
// pays per interval, or the compressed interval distorts the comparison
// the figures make (see EXPERIMENTS.md on scaling).
func perfScale() Scale {
	s := TestScale()
	s.Interval = 300 * sim.Microsecond
	s.Checkpoints = 2
	s.Warmup = 50 * sim.Microsecond
	return s
}

func fig8Lookup(rows []Fig8Row) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for _, r := range rows {
		if out[r.Benchmark] == nil {
			out[r.Benchmark] = map[string]float64{}
		}
		out[r.Benchmark][r.Mechanism] = r.Normalized
	}
	return out
}

func TestFig1Shape(t *testing.T) {
	rows, tb := Fig1(TestScale())
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Fig1Row{}
	for _, r := range rows {
		byName[r.Benchmark] = r
	}
	gap := byName["gapbs_pr"]
	ycsb := byName["ycsb_mem"]
	if gap.StackReads+gap.StackWrites < 0.6 {
		t.Fatalf("gapbs stack fraction too low: %+v", gap)
	}
	if ycsb.StackReads+ycsb.StackWrites > 0.3 {
		t.Fatalf("ycsb stack fraction too high: %+v", ycsb)
	}
	if !strings.Contains(tb.String(), "gapbs_pr") {
		t.Fatal("table missing benchmark")
	}
}

func TestFig2Shape(t *testing.T) {
	res, _ := Fig2(TestScale())
	if len(res.Rows) < 50 {
		t.Fatalf("intervals = %d", len(res.Rows))
	}
	if res.AvgBeyondSPFrac < 0.15 || res.AvgBeyondSPFrac > 0.6 {
		t.Fatalf("beyond-SP fraction = %.3f, want ~0.36", res.AvgBeyondSPFrac)
	}
}

func TestFig3Shape(t *testing.T) {
	rows, _ := Fig3(TestScale())
	// Index by (bench, mech, aware).
	val := map[string]float64{}
	for _, r := range rows {
		key := r.Benchmark + "/" + r.Mechanism
		if r.SPAware {
			key += "/aware"
		}
		val[key] = r.Normalized
	}
	for _, bench := range []string{"gapbs_pr", "g500_sssp", "ycsb_mem"} {
		for _, mech := range []string{"flush", "undo", "redo"} {
			unaware := val[bench+"/"+mech]
			aware := val[bench+"/"+mech+"/aware"]
			if aware >= unaware {
				t.Fatalf("%s/%s: SP awareness did not help (%.2f vs %.2f)", bench, mech, aware, unaware)
			}
			// Even SP-aware NVM persistence is far slower than baseline.
			if aware < 1.5 {
				t.Fatalf("%s/%s: aware slowdown %.2f implausibly low", bench, mech, aware)
			}
		}
		// undo costs more than flush (read+log+write per store).
		if val[bench+"/undo"] <= val[bench+"/flush"] {
			t.Fatalf("%s: undo should cost more than flush", bench)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	rows, _ := Fig4(TestScale())
	byName := map[string]Fig4Row{}
	for _, r := range rows {
		byName[r.Benchmark] = r
	}
	gap, sssp, ycsb := byName["gapbs_pr"], byName["g500_sssp"], byName["ycsb_mem"]
	if !(gap.ReductionRatio > sssp.ReductionRatio && sssp.ReductionRatio > ycsb.ReductionRatio) {
		t.Fatalf("reduction ordering violated: %.0f / %.0f / %.0f",
			gap.ReductionRatio, sssp.ReductionRatio, ycsb.ReductionRatio)
	}
	if gap.ReductionRatio < 20 || ycsb.ReductionRatio < 3 {
		t.Fatalf("reductions too small: %.0f / %.0f", gap.ReductionRatio, ycsb.ReductionRatio)
	}
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	rows, _ := Fig8(perfScale())
	v := fig8Lookup(rows)
	for _, bench := range []string{"gapbs_pr", "g500_sssp", "ycsb_mem"} {
		m := v[bench]
		// Prosper beats Romulus and every SSP variant.
		if m["prosper"] >= m["romulus"] {
			t.Fatalf("%s: prosper (%.3f) should beat romulus (%.3f)", bench, m["prosper"], m["romulus"])
		}
		if m["prosper"] >= m["ssp-10us"] {
			t.Fatalf("%s: prosper (%.3f) should beat ssp-10us (%.3f)", bench, m["prosper"], m["ssp-10us"])
		}
		if m["prosper"] >= m["ssp-1ms"] {
			t.Fatalf("%s: prosper (%.3f) should beat ssp-1ms (%.3f)", bench, m["prosper"], m["ssp-1ms"])
		}
		// SSP improves with a longer consolidation interval.
		if m["ssp-1ms"] > m["ssp-10us"] {
			t.Fatalf("%s: ssp-1ms (%.3f) should not be slower than ssp-10us (%.3f)", bench, m["ssp-1ms"], m["ssp-10us"])
		}
		// All mechanisms cost something.
		if m["prosper"] < 1.0 {
			t.Fatalf("%s: prosper normalized %.3f < 1", bench, m["prosper"])
		}
	}
}

func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	rows, _ := Fig9(perfScale())
	v := map[string]float64{}
	for _, r := range rows {
		v[r.Benchmark+"/"+r.Combination+"/"+r.SSPInterval] = r.Normalized
	}
	for _, bench := range []string{"gapbs_pr", "g500_sssp", "ycsb_mem"} {
		// At 10µs and 100µs consolidation the combination must win
		// outright (the paper's headline claim). At 1 ms the NVM-resident
		// heap dominates both sides under our interval compression
		// (EXPERIMENTS.md), so require near-parity rather than a win.
		for _, iv := range []string{"10us", "100us"} {
			all := v[bench+"/ssp/"+iv]
			pro := v[bench+"/ssp+prosper/"+iv]
			if pro >= all {
				t.Fatalf("%s@%s: ssp+prosper (%.3f) should beat ssp-everywhere (%.3f)", bench, iv, pro, all)
			}
		}
		all := v[bench+"/ssp/1ms"]
		pro := v[bench+"/ssp+prosper/1ms"]
		if pro > all*1.02 {
			t.Fatalf("%s@1ms: ssp+prosper (%.3f) meaningfully worse than ssp-everywhere (%.3f)", bench, pro, all)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	rows, _ := Fig10(TestScale())
	v := map[string]Fig10Row{}
	for _, r := range rows {
		v[r.Benchmark+"/"+r.Granularity] = r
	}
	// Sparse: 8B tracking must shrink checkpoints dramatically vs page.
	sparsePage := v["sparse/page"].MeanBytes
	sparse8 := v["sparse/8B"].MeanBytes
	if sparse8 <= 0 || sparsePage/sparse8 < 50 {
		t.Fatalf("sparse reduction = %.1f (page %.0f, 8B %.0f), want >50x",
			sparsePage/sparse8, sparsePage, sparse8)
	}
	// Stream: fine tracking cannot shrink the copy much (everything dirty).
	streamPage := v["stream/page"].MeanBytes
	stream8 := v["stream/8B"].MeanBytes
	if stream8 < streamPage/4 {
		t.Fatalf("stream: 8B %.0f vs page %.0f — should be comparable", stream8, streamPage)
	}
	// Checkpoint size grows (or stays equal) with granularity for sparse.
	if v["sparse/128B"].MeanBytes < v["sparse/8B"].MeanBytes {
		t.Fatal("sparse checkpoint size should not shrink with coarser granularity")
	}
}

func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	rows, _ := Fig11(TestScale())
	v := map[string]Fig11Row{}
	for _, r := range rows {
		v[r.Benchmark+"/"+r.IntervalName] = r
	}
	// Recursive: size grows with interval length? The paper observes
	// growth for Recursive; require non-decreasing from 1ms to 10ms.
	for _, b := range []string{"rec-4", "rec-8", "rec-16"} {
		if v[b+"/10ms"].MeanBytes+1 < v[b+"/1ms"].MeanBytes {
			t.Fatalf("%s: checkpoint size shrank with longer interval (%.0f -> %.0f)",
				b, v[b+"/1ms"].MeanBytes, v[b+"/10ms"].MeanBytes)
		}
	}
	// Deeper recursion dirties more stack.
	if v["rec-16/10ms"].MeanBytes <= v["rec-4/10ms"].MeanBytes {
		t.Fatal("rec-16 should checkpoint more than rec-4")
	}
}

func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	rows, _ := Fig12(TestScale())
	if len(rows) != 7*3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Speedup < 0.85 || r.Speedup > 1.1 {
			t.Fatalf("%s@%s: tracking speedup %.3f outside plausible band", r.Benchmark, r.Granularity, r.Speedup)
		}
	}
}

func TestFig13Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	rows, _ := Fig13(TestScale())
	v := map[string]Fig13Row{}
	for _, r := range rows {
		v[r.Benchmark+"/"+r.Param+"/"+string(rune('0'+r.Value/10))+string(rune('0'+r.Value%10))] = r
	}
	// SSSP has spatial locality: traffic at HWM=32 <= traffic at HWM=8,
	// and clearly so for loads (paper Fig 13a).
	ssspLow := v["g500_sssp/hwm/08"]
	ssspHigh := v["g500_sssp/hwm/32"]
	if ssspHigh.BitmapStores > ssspLow.BitmapStores {
		t.Fatalf("sssp: stores rose with HWM (%d -> %d)", ssspLow.BitmapStores, ssspHigh.BitmapStores)
	}
	if ssspHigh.BitmapLoads*3 > ssspLow.BitmapLoads*2 {
		t.Fatalf("sssp: loads should fall markedly with HWM (%d -> %d)", ssspLow.BitmapLoads, ssspHigh.BitmapLoads)
	}
	// mcf lacks spatial locality: the trend reverses — loads must not
	// fall with HWM (paper Fig 13c) and must fall with a larger LWM
	// (paper Fig 13d: more evictions help mcf).
	mcfHwmLow := v["mcf/hwm/08"]
	mcfHwmHigh := v["mcf/hwm/32"]
	if mcfHwmHigh.BitmapLoads < mcfHwmLow.BitmapLoads {
		t.Fatalf("mcf: loads fell with HWM (%d -> %d)", mcfHwmLow.BitmapLoads, mcfHwmHigh.BitmapLoads)
	}
	if v["mcf/lwm/12"].BitmapLoads > v["mcf/lwm/04"].BitmapLoads {
		t.Fatalf("mcf: loads rose with LWM (%d -> %d)",
			v["mcf/lwm/04"].BitmapLoads, v["mcf/lwm/12"].BitmapLoads)
	}
	// Every config produced traffic.
	for k, r := range v {
		if r.BitmapLoads == 0 && r.BitmapStores == 0 {
			t.Fatalf("%s: no bitmap traffic", k)
		}
	}
}

func TestContextSwitchMeasurement(t *testing.T) {
	res, _ := ContextSwitch(TestScale())
	if res.Switches < 4 {
		t.Fatalf("switches = %d", res.Switches)
	}
	// Paper: ~870 cycles; require the right order of magnitude.
	if res.MeanTotal < 100 || res.MeanTotal > 20000 {
		t.Fatalf("mean switch overhead = %.0f cycles", res.MeanTotal)
	}
}

func TestEnergyReport(t *testing.T) {
	rep, _ := Energy(TestScale())
	if rep.TotalNJ <= 0 {
		t.Fatal("no energy computed")
	}
	if rep.DynamicReadNJ <= 0 {
		t.Fatal("no dynamic read energy (no SOIs?)")
	}
}

func TestAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	rows, _ := Ablation(TestScale())
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.BitmapStores == 0 {
			t.Fatalf("%s/%s: no bitmap stores", r.Benchmark, r.Policy)
		}
	}
}

func TestTrackingCostShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	rows, _ := TrackingCost(TestScale())
	v := map[string]TrackingCostRow{}
	for _, r := range rows {
		v[r.Benchmark+"/"+r.Technique] = r
	}
	for _, bench := range []string{"sparse", "gapbs_pr"} {
		wp := v[bench+"/writeprotect"]
		db := v[bench+"/dirtybit"]
		pr := v[bench+"/prosper"]
		if wp.Normalized < db.Normalized {
			t.Fatalf("%s: writeprotect (%.3f) should cost at least dirtybit (%.3f)",
				bench, wp.Normalized, db.Normalized)
		}
		if pr.Normalized >= db.Normalized {
			t.Fatalf("%s: prosper (%.3f) should beat dirtybit (%.3f)",
				bench, pr.Normalized, db.Normalized)
		}
		if db.Faults != 0 || pr.Faults != 0 {
			t.Fatalf("%s: non-writeprotect techniques took write faults", bench)
		}
	}
	if v["sparse/writeprotect"].Faults == 0 {
		t.Fatal("writeprotect took no faults on sparse")
	}
}

func TestAdaptiveGranularityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	rows, _ := Adaptive(TestScale())
	v := map[string]AdaptiveRow{}
	for _, r := range rows {
		v[r.Benchmark+"/"+r.Mode] = r
	}
	// Stream: adaptive must slash the OS metadata work at (near-)equal
	// copy volume.
	sf, sa := v["stream/fixed-8B"], v["stream/adaptive"]
	if sa.MetaScanned*2 > sf.MetaScanned {
		t.Fatalf("stream: adaptive meta %d not well below fixed %d", sa.MetaScanned, sf.MetaScanned)
	}
	if sa.MeanCkptBytes > sf.MeanCkptBytes*1.1 {
		t.Fatalf("stream: adaptive copy volume ballooned (%.0f vs %.0f)", sa.MeanCkptBytes, sf.MeanCkptBytes)
	}
	// Sparse: adaptive must not escalate (checkpoints stay tiny).
	pf, pa := v["sparse/fixed-8B"], v["sparse/adaptive"]
	if pa.MeanCkptBytes > pf.MeanCkptBytes*2 {
		t.Fatalf("sparse: adaptive checkpoint grew (%.0f vs %.0f)", pa.MeanCkptBytes, pf.MeanCkptBytes)
	}
}

// TestPlanDeterministicAcrossWorkers runs a heavy multi-spec figure
// (Fig 9: 30 specs) serially and on four workers and asserts the
// rendered tables are byte-identical — the executor's core contract:
// parallelism changes wall-clock time only, never results. It runs
// under -short too (about 0.2 s, 1.4 s with -race): 27 of its specs
// put SSP on the heap, whose map walks must stay in address order.
func TestPlanDeterministicAcrossWorkers(t *testing.T) {
	serial := TestScale()
	serial.Workers = 1
	parallel := TestScale()
	parallel.Workers = 4
	_, tb1 := Fig9(serial)
	_, tb4 := Fig9(parallel)
	if tb1.String() != tb4.String() {
		t.Fatalf("Fig9 tables differ between workers=1 and workers=4:\n%s\n--- vs ---\n%s",
			tb1.String(), tb4.String())
	}
}

func TestTable1Rendered(t *testing.T) {
	tb := Table1()
	out := tb.String()
	for _, want := range []string{"prosper", "dirtybit", "stack in DRAM"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

// TestPauseBreakdownShape checks the stall-attribution table: every
// mechanism records epochs whose per-cause cycles sum exactly to the
// measured pause, and each mechanism's dominant cause matches its design
// (Prosper far below page-granularity Dirtybit; only Prosper charges
// tracker-flush time).
func TestPauseBreakdownShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	rows, tb := PauseBreakdown(perfScale())
	if len(rows) == 0 || tb.NumRows() != len(rows) {
		t.Fatalf("no pause rows (table has %d)", tb.NumRows())
	}
	byMech := map[string]PauseRow{}
	for _, r := range rows {
		byMech[r.Mechanism] = r
		// Romulus replays its whole store log per epoch; at this
		// compressed scale its first epoch can outlast the window.
		if r.Pauses == 0 && r.Mechanism != "romulus" {
			t.Errorf("%s: no epochs measured", r.Mechanism)
		}
		var sum uint64
		for _, v := range r.Causes {
			sum += v
		}
		if sum != r.Total {
			t.Errorf("%s: causes sum %d != pause_cycles %d", r.Mechanism, sum, r.Total)
		}
	}
	if p, d := byMech["prosper"], byMech["dirtybit"]; p.Pauses > 0 && d.Pauses > 0 {
		if p.Total/p.Pauses >= d.Total/d.Pauses {
			t.Errorf("prosper mean pause (%d) should be below dirtybit's (%d)",
				p.Total/p.Pauses, d.Total/d.Pauses)
		}
	}
	for name, r := range byMech {
		flush := r.Causes[persist.CauseTrackerFlush]
		if name == "prosper" && flush == 0 {
			t.Error("prosper charged no tracker-flush cycles")
		}
		if name != "prosper" && flush != 0 {
			t.Errorf("%s charged tracker-flush cycles (%d)", name, flush)
		}
	}
}

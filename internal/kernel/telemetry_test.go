package kernel

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"prosper/internal/machine"
	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/telemetry"
	"prosper/internal/workload"
)

// tracedRun executes a small fixed-seed 2-core checkpointing run with
// telemetry enabled and returns the serialized trace bytes.
func tracedRun(t *testing.T) []byte {
	t.Helper()
	trace := telemetry.NewTrace()
	k := New(Config{
		Machine:     machine.Config{Cores: 2},
		Quantum:     200 * sim.Microsecond,
		Tracer:      trace.NewTracer("test-run"),
		SampleEvery: 20 * sim.Microsecond,
	})
	p := k.Spawn(ProcessConfig{
		Name:               "traced",
		StackMech:          persist.NewProsper(persist.ProsperConfig{}),
		CheckpointInterval: 200 * sim.Microsecond,
		Seed:               7,
	}, workload.NewRandom(workload.MicroParams{ArrayBytes: 32 << 10, WritesPerRun: 128}),
		workload.NewRandom(workload.MicroParams{ArrayBytes: 32 << 10, WritesPerRun: 128}))
	k.RunFor(900 * sim.Microsecond)
	p.Shutdown()

	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceGoldenShape is the Perfetto-export integration test: a small
// 2-core checkpointing run must produce valid trace-event JSON holding
// checkpoint-epoch phase spans, tracker flush instants, and the
// occupancy counter tracks.
func TestTraceGoldenShape(t *testing.T) {
	out := tracedRun(t)

	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	phasesByName := map[string]map[string]bool{}
	for _, e := range parsed.TraceEvents {
		if phasesByName[e.Name] == nil {
			phasesByName[e.Name] = map[string]bool{}
		}
		phasesByName[e.Name][e.Ph] = true
	}
	for name, ph := range map[string]string{
		"checkpoint":      "X", // epoch span
		"quiesce":         "X",
		"persist-stacks":  "X",
		"commit":          "X",
		"flush":           "i", // tracker flush instant
		"nvm.write_queue": "C", // occupancy counter tracks
		"tracker0.table":  "C",
		"tracker1.table":  "C",
	} {
		if !phasesByName[name][ph] {
			t.Errorf("trace has no %q event with phase %q", name, ph)
		}
	}
	// The checkpoint epoch span must carry its size attributes.
	for _, e := range parsed.TraceEvents {
		if e.Name == "checkpoint" && e.Ph == "X" {
			if _, ok := e.Args["bytes"]; !ok {
				t.Fatalf("checkpoint span missing bytes arg: %v", e.Args)
			}
			if _, ok := e.Args["pages"]; !ok {
				t.Fatalf("checkpoint span missing pages arg: %v", e.Args)
			}
			break
		}
	}
}

// TestTraceDeterministic pins byte-identical trace output for identical
// runs (the per-run half of the -parallel determinism guarantee).
func TestTraceDeterministic(t *testing.T) {
	a := tracedRun(t)
	b := tracedRun(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("identical runs produced different traces (%d vs %d bytes)", len(a), len(b))
	}
}

// TestDumpStatsJSON checks the JSON dump carries exactly the text dump's
// keys and values, in the same stable order.
func TestDumpStatsJSON(t *testing.T) {
	k := testKernel(2)
	p := k.Spawn(ProcessConfig{
		Name:               "jsonme",
		StackMech:          persist.NewProsper(persist.ProsperConfig{}),
		CheckpointInterval: 200 * sim.Microsecond,
	}, workload.NewRandom(workload.MicroParams{ArrayBytes: 8 << 10, WritesPerRun: 64}))
	k.RunFor(500 * sim.Microsecond)
	p.Shutdown()

	var text, js bytes.Buffer
	k.DumpStats(&text)
	if err := k.DumpStatsJSON(&js); err != nil {
		t.Fatal(err)
	}

	var parsed map[string]uint64
	if err := json.Unmarshal(js.Bytes(), &parsed); err != nil {
		t.Fatalf("DumpStatsJSON output invalid: %v\n%s", err, js.String())
	}

	// Same key order: extract key order from the raw JSON bytes (the
	// writer emits insertion-ordered keys) and from the text dump.
	var textKeys []string
	textVals := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(text.String()), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("unparseable text line %q", line)
		}
		textKeys = append(textKeys, f[0])
		textVals[f[0]] = f[1]
	}
	var jsonKeys []string
	dec := json.NewDecoder(bytes.NewReader(js.Bytes()))
	if _, err := dec.Token(); err != nil { // opening brace
		t.Fatal(err)
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		jsonKeys = append(jsonKeys, tok.(string))
		if _, err := dec.Token(); err != nil { // value
			t.Fatal(err)
		}
	}
	if len(jsonKeys) != len(textKeys) {
		t.Fatalf("JSON has %d keys, text has %d", len(jsonKeys), len(textKeys))
	}
	for i, k := range textKeys {
		if jsonKeys[i] != k {
			t.Fatalf("key %d: JSON %q vs text %q", i, jsonKeys[i], k)
		}
	}
	// Spot-check values survive the format change (sim.cycles differs
	// between dumps only if the engine advanced; it hasn't).
	for _, key := range []string{"kernel.kernel.context_switches", "proc.jsonme.checkpoints", "sim.cycles"} {
		if textVals[key] == "" {
			t.Fatalf("text dump missing %s", key)
		}
	}
}

// TestDumpStatsGoldenOrder pins the section ordering contract of the
// text dump: components print in registration order, and counter names
// sort within each section.
func TestDumpStatsGoldenOrder(t *testing.T) {
	k := testKernel(2)
	p := k.Spawn(ProcessConfig{
		Name:               "ordered",
		StackMech:          persist.NewProsper(persist.ProsperConfig{}),
		CheckpointInterval: 200 * sim.Microsecond,
	}, workload.NewRandom(workload.MicroParams{ArrayBytes: 8 << 10, WritesPerRun: 64}),
		workload.NewRandom(workload.MicroParams{ArrayBytes: 8 << 10, WritesPerRun: 64}))
	k.RunFor(500 * sim.Microsecond)
	p.Shutdown()

	var buf bytes.Buffer
	k.DumpStats(&buf)
	out := buf.String()

	sections := []string{
		"kernel.", "core0.core.", "core0.tlb.", "core1.core.", "core1.tlb.",
		"l1d0.", "l1d1.", "l2_0.", "l2_1.", "l3.", "dram.", "nvm.",
		"machine.", "tracker0.", "tracker1.", "proc.ordered.",
		"sim.cycles", "sim.events",
	}
	last := -1
	for _, s := range sections {
		idx := strings.Index(out, "\n"+s)
		if idx < 0 && strings.HasPrefix(out, s) {
			idx = 0
		}
		if idx < 0 {
			t.Fatalf("dump has no section %q", s)
		}
		if idx <= last {
			t.Fatalf("section %q out of order (index %d, previous section ended at %d)", s, idx, last)
		}
		last = idx
	}

	// Within a section, counter names are sorted, and the histogram
	// subsection follows as sorted histogram names expanded with the
	// fixed scalar-suffix order.
	var nvmNames []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "nvm.") {
			nvmNames = append(nvmNames, strings.Fields(line)[0])
		}
	}
	var wantHist []string
	for _, h := range []string{"bank_wait", "read_latency", "read_wait", "write_latency", "write_wait"} {
		for _, s := range []string{"count", "sum", "min", "max", "p50", "p95", "p99"} {
			wantHist = append(wantHist, "nvm."+h+"."+s)
		}
	}
	if len(nvmNames) <= len(wantHist) {
		t.Fatalf("nvm section too short: %d lines", len(nvmNames))
	}
	counters := nvmNames[:len(nvmNames)-len(wantHist)]
	hists := nvmNames[len(nvmNames)-len(wantHist):]
	var prev string
	for _, name := range counters {
		if prev != "" && name < prev {
			t.Fatalf("nvm counters not sorted: %q after %q", name, prev)
		}
		prev = name
	}
	for i, name := range hists {
		if name != wantHist[i] {
			t.Fatalf("nvm histogram line %d: got %q, want %q", i, name, wantHist[i])
		}
	}
}

package kernel

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/workload"
)

func TestDumpStatsContainsAllSections(t *testing.T) {
	k := testKernel(2)
	p := k.Spawn(ProcessConfig{
		Name:               "dumpme",
		StackMech:          persist.NewProsper(persist.ProsperConfig{}),
		CheckpointInterval: 200 * sim.Microsecond,
	}, workload.NewRandom(workload.MicroParams{ArrayBytes: 8 << 10, WritesPerRun: 64}))
	k.RunFor(700 * sim.Microsecond)
	p.Shutdown()

	var buf bytes.Buffer
	k.DumpStats(&buf)
	out := buf.String()
	for _, want := range []string{
		"kernel.kernel.context_switches",
		"core0.core.stores",
		"l1d0.l1d.hits",
		"l3.l3.",
		"dram.dram.reads",
		"nvm.nvm.writes",
		"tracker0.prosper.sois",
		"proc.dumpme.checkpoints",
		"proc.dumpme.thread0.user_ops",
		"sim.cycles",
		"sim.events",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out[:min(len(out), 800)])
		}
	}
}

func TestDumpStatsParseable(t *testing.T) {
	k := testKernel(1)
	k.Spawn(ProcessConfig{Name: "p"}, workload.NewCounter(500))
	k.RunUntilDone(sim.Second)
	var buf bytes.Buffer
	k.DumpStats(&buf)
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		lines++
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("unparseable line: %q", sc.Text())
		}
	}
	if lines < 25 {
		t.Fatalf("dump suspiciously small: %d lines", lines)
	}
}

// TestDumpStatsJSONUniqueKeys: every key of a multi-process, multi-core
// dump is distinct, so the JSON object loses nothing on decode.
func TestDumpStatsJSONUniqueKeys(t *testing.T) {
	k := testKernel(2)
	for _, name := range []string{"svc", "svc2"} {
		k.Spawn(ProcessConfig{
			Name:               name,
			StackMech:          persist.NewProsper(persist.ProsperConfig{}),
			CheckpointInterval: 200 * sim.Microsecond,
		}, workload.NewCounter(100000), workload.NewCounter(100000))
	}
	k.RunFor(500 * sim.Microsecond)

	var js bytes.Buffer
	if err := k.DumpStatsJSON(&js); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&js)
	if _, err := dec.Token(); err != nil { // opening brace
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		key := tok.(string)
		if seen[key] {
			t.Fatalf("key %q appears twice", key)
		}
		seen[key] = true
		if _, err := dec.Token(); err != nil { // value
			t.Fatal(err)
		}
	}
	for _, want := range []string{"core1.core.stores", "proc.svc.checkpoints", "proc.svc2.thread1.user_ops"} {
		if !seen[want] {
			t.Fatalf("dump has no %q", want)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

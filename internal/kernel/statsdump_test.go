package kernel

import (
	"bufio"
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"

	"prosper/internal/machine"
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
		"proc.dumpme.thread0.stack.prosper.schedule_in",
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

// metricKeyRe is the metric-key convention: lowercase dotted
// identifiers, the shape DumpStats sorts and downstream parsers split.
var metricKeyRe = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$`)

// TestDumpStatsJSONUniqueKeys runs two cores and one two-thread process
// per stack mechanism, two of them with a heap mechanism, and checks
// every key of the dump: it is distinct, so the JSON object loses
// nothing on decode (owners that name their counters alike, such as
// every core's TLB, collide here), and it is a lowercase dotted
// identifier.
func TestDumpStatsJSONUniqueKeys(t *testing.T) {
	k := New(Config{Machine: machine.Config{Cores: 2}, Quantum: 50 * sim.Microsecond})
	heaps := map[string]persist.Factory{
		"prosper": persist.NewSSP(persist.SSPConfig{}),
		"none":    persist.NewDirtybit(persist.DirtybitConfig{}),
	}
	for _, name := range persist.Names() {
		stack, _ := persist.ByName(name)
		cfg := ProcessConfig{
			Name:               "p_" + strings.ReplaceAll(name, "-", "_"),
			StackMech:          stack,
			CheckpointInterval: 100 * sim.Microsecond,
		}
		if h := heaps[name]; h != nil {
			cfg.HeapMech, cfg.HeapSize = h, 1<<20
		}
		k.Spawn(cfg, workload.NewCounter(100000), workload.NewCounter(100000))
	}
	k.RunFor(1500 * sim.Microsecond)

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
		if !metricKeyRe.MatchString(key) {
			t.Errorf("key %q is not a lowercase dotted identifier", key)
		}
		seen[key] = true
		if _, err := dec.Token(); err != nil { // value
			t.Fatal(err)
		}
	}
	for _, want := range []string{
		"core1.core.stores",
		"core1.tlb.hits",
		"proc.p_prosper.checkpoints",
		"proc.p_ssp.thread1.user_ops",
		"proc.p_prosper.thread1.stack.prosper.schedule_in",
		"proc.p_prosper.heap.ssp.shadow_pages",
		"proc.p_none.heap.dirtybit.ckpt_ptes_scanned",
		"proc.p_ssp.thread0.stack.ssp.shadow_pages",
	} {
		if !seen[want] {
			t.Errorf("dump has no %q", want)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

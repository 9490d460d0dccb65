// Command prosper-journey explores a per-access journey journal written
// by prosper-experiments -journey-out (or any runner harness wired to a
// journey.Journal): sampled end-to-end access traces through core issue,
// cache lookup, MSHR wait, page walk, device queueing, bank service, and
// persistence-domain drain (DESIGN.md §15).
//
// Usage:
//
//	prosper-journey [-json] [-top k] [-stage-table] [journal.jsonl]
//
// With no file argument the journal is read from stdin. The default
// output is, per run: the sampling counters, the aggregate stage-latency
// table, the top-K slowest accesses with their dominant stage, and a
// stage-latency waterfall of the single slowest access ("anatomy of a
// slow access", EXPERIMENTS.md). -stage-table suppresses everything but
// the stage tables; -json emits the full analysis as one JSON document.
//
// Every journal is re-validated on load (journey.Parse): the recorder's
// own attribution sweep re-derives each journey's per-stage vector from
// its spans, and the stored vector must match it exactly; every span must
// lie inside its journey's [start, end] window; JIDs must strictly
// increase within the run's sampled count; and the run header's counts
// must match its lines.
//
// Output is deterministic for identical input. Exit status: 0 success,
// 2 usage error, malformed journal, or invariant violation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"prosper/internal/journey"
)

// run is the testable entry point.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("prosper-journey", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the analysis as a JSON document")
	topK := fs.Int("top", 10, "number of slowest accesses to list per run")
	stageTable := fs.Bool("stage-table", false, "print only the per-run aggregate stage tables")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var in io.Reader
	switch fs.NArg() {
	case 0:
		in = stdin
	case 1:
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, "prosper-journey:", err)
			return 2
		}
		defer f.Close()
		in = f
	default:
		fmt.Fprintln(stderr, "usage: prosper-journey [-json] [-top k] [-stage-table] [journal.jsonl]")
		return 2
	}
	jl, err := journey.Parse(in)
	if err != nil {
		fmt.Fprintln(stderr, "prosper-journey:", err)
		return 2
	}
	a := journey.Analyze(jl, *topK)
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(a); err != nil {
			fmt.Fprintln(stderr, "prosper-journey:", err)
			return 2
		}
		return 0
	}
	if err := a.WriteText(stdout, *stageTable); err != nil {
		fmt.Fprintln(stderr, "prosper-journey:", err)
		return 2
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

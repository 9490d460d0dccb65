// Command prosper-lint runs the project's determinism analyzers
// (internal/analysis: every map range in sim packages, host clocks and
// the global RNG, stray concurrency) over the module and exits non-zero
// on findings. It is a CI gate for the defect classes that the runtime
// gates (the quick-suite golden, the experiments_output.txt compare,
// the race detector) catch only by chance.
//
// Usage:
//
//	prosper-lint [-json] [-list] [pattern ...]
//
// Patterns are module-relative package patterns ("./...", the default,
// or directories like "internal/kernel" or "internal/..."). Output is
// one "file:line:col: [pass] message" per finding, or a deterministic
// JSON report with -json (CI archives it as an artifact).
//
// Exit status: 0 clean, 1 findings, 2 usage or load/type-check error.
//
// Suppress a finding with a justified directive on the offending line
// or the line directly above:
//
//	//prosperlint:ignore <pass>[,<pass>...] <reason>
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"prosper/internal/analysis"
)

// run is the testable entry point; dir anchors module discovery.
func run(args []string, dir string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("prosper-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the report as deterministic JSON")
	list := fs.Bool("list", false, "list the available passes and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, p := range analysis.AllPasses() {
			fmt.Fprintf(stdout, "%-12s %s\n", p.Name(), p.Doc())
		}
		fmt.Fprintf(stdout, "%-12s %s\n", analysis.DirectivePass,
			"(reserved) malformed //prosperlint:ignore directives")
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	runner, err := analysis.NewRunner(dir)
	if err != nil {
		fmt.Fprintln(stderr, "prosper-lint:", err)
		return 2
	}
	rep, err := runner.Run(patterns)
	if err != nil {
		fmt.Fprintln(stderr, "prosper-lint:", err)
		return 2
	}

	if *jsonOut {
		if err := rep.WriteJSON(stdout, runner.Loader.Root); err != nil {
			fmt.Fprintln(stderr, "prosper-lint:", err)
			return 2
		}
	} else {
		rep.WriteText(stdout, runner.Loader.Root)
	}

	if len(rep.Findings) > 0 {
		return 1
	}
	return 0
}

func main() {
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "prosper-lint:", err)
		os.Exit(2)
	}
	os.Exit(run(os.Args[1:], dir, os.Stdout, os.Stderr))
}

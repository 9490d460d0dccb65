// Package analysis implements prosper-lint: a small, stdlib-only static
// analysis framework (go/ast + go/types, no x/tools) with
// project-specific passes that make the simulator's determinism
// guarantees mechanically checkable instead of review-enforced.
//
// The headline contract being protected: a run plan produces
// byte-identical experiments_output.txt, traces, and bench metrics at
// any -parallel worker count. A pass stays only for a defect class that
// no runtime gate (the quick-suite golden, the experiments_output.txt
// byte compare, the race detector, the stats-dump tests) catches every
// time: map-iteration order leaking into timed NVM accesses, host
// wall-clock reads in sim paths, and goroutines or channel selects
// ordering single-threaded sim state. Metric-key hygiene is checked on
// the real dump by internal/kernel's TestDumpStatsJSONUniqueKeys.
//
// Findings can be suppressed, with a mandatory reason, by a directive
// on the offending line or the line directly above it:
//
//	//prosperlint:ignore <pass>[,<pass>...] <reason>
//
// Malformed directives (unknown pass, missing reason) are themselves
// findings, so the suppression inventory stays auditable.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// DeterministicPackages are the sim-time packages (module-relative)
// whose code must be bit-reproducible for a given seed: everything that
// executes between Engine ticks. Host-side orchestration (runner, cmd,
// stats.RunLog, telemetry's cross-run lane allocation) is excluded.
var DeterministicPackages = []string{
	"internal/sim",
	"internal/machine",
	"internal/mem",
	"internal/cache",
	"internal/vm",
	"internal/kernel",
	"internal/journey",
	"internal/prosper",
	"internal/persist",
	"internal/crash",
	"internal/workload",
	"internal/trace",
	"internal/experiments",
}

// Finding is one diagnostic. File is an absolute path at report time;
// renderers relativize it against a base directory.
type Finding struct {
	Pass    string `json:"pass"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// Pass is one analyzer. A pass is instantiated per Runner (passes may
// accumulate cross-package state) and invoked once per loaded package.
type Pass interface {
	Name() string
	Doc() string // one-line description for -list
	Run(pkg *Package, r *Reporter)
}

// AllPasses returns fresh instances of every shipped pass, in the order
// they run.
func AllPasses() []Pass {
	return []Pass{
		NewMapRange(),
		NewWallclock(),
		NewConcurrency(),
	}
}

// Report is the outcome of one Runner.Run: sorted findings plus
// bookkeeping for the summary line and the JSON artifact.
type Report struct {
	Module     string    `json:"module"`
	Packages   int       `json:"packages"`
	Findings   []Finding `json:"findings"`
	Suppressed int       `json:"suppressed"`
}

// Runner loads packages and applies passes.
type Runner struct {
	Loader *Loader
	Passes []Pass
}

// NewRunner returns a runner over the module containing dir with the
// full pass suite.
func NewRunner(dir string) (*Runner, error) {
	l, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	return &Runner{Loader: l, Passes: AllPasses()}, nil
}

// Run loads every package matched by patterns, applies all passes, and
// returns the report. Directive parsing errors surface as findings of
// the reserved "directive" pass.
func (r *Runner) Run(patterns []string) (*Report, error) {
	pkgs, err := r.Loader.Load(patterns)
	if err != nil {
		return nil, err
	}
	return r.Analyze(pkgs), nil
}

// Analyze applies the passes to already-loaded packages.
func (r *Runner) Analyze(pkgs []*Package) *Report {
	known := map[string]bool{DirectivePass: true}
	for _, p := range r.Passes {
		known[p.Name()] = true
	}
	rep := &Reporter{
		fset:       r.Loader.Fset,
		known:      known,
		directives: make(map[string][]Directive),
	}
	for _, pkg := range pkgs {
		for i, f := range pkg.Files {
			name := pkg.Names[i]
			rep.directives[name] = ParseDirectives(r.Loader.Fset, f, pkg.Src[name])
		}
	}
	for _, pkg := range pkgs {
		for _, pass := range r.Passes {
			pass.Run(pkg, rep)
		}
	}
	rep.reportBadDirectives()

	out := &Report{
		Module:     r.Loader.Module,
		Packages:   len(pkgs),
		Findings:   rep.findings,
		Suppressed: rep.suppressed,
	}
	sort.Slice(out.Findings, func(i, j int) bool {
		a, b := out.Findings[i], out.Findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Message < b.Message
	})
	return out
}

// Reporter collects findings and applies suppression directives.
type Reporter struct {
	fset       *token.FileSet
	known      map[string]bool        // valid pass names (incl. "directive")
	directives map[string][]Directive // file -> parsed directives
	findings   []Finding
	suppressed int
}

// Report records a finding from pass at pos unless a valid ignore
// directive targets its line.
func (r *Reporter) Report(pass string, pos token.Pos, msg string) {
	p := r.fset.Position(pos)
	for _, d := range r.directives[p.Filename] {
		if d.Err == "" && d.Target == p.Line && d.matchesPass(pass) {
			r.suppressed++
			return
		}
	}
	r.findings = append(r.findings, Finding{
		Pass: pass, File: p.Filename, Line: p.Line, Col: p.Column, Message: msg,
	})
}

// reportBadDirectives converts malformed directives (and directives
// naming unknown passes) into findings. These are deliberately not
// suppressible: the directive inventory must stay self-describing.
func (r *Reporter) reportBadDirectives() {
	files := make([]string, 0, len(r.directives))
	for f := range r.directives {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		for _, d := range r.directives[f] {
			msg := d.Err
			if msg == "" {
				for _, p := range d.Passes {
					if !r.known[p] {
						msg = fmt.Sprintf("directive names unknown pass %q", p)
						break
					}
				}
			}
			if msg != "" {
				r.findings = append(r.findings, Finding{
					Pass: DirectivePass, File: f, Line: d.Line, Col: d.Col, Message: msg,
				})
			}
		}
	}
}

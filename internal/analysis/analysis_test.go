package analysis

import (
	"regexp"
	"strings"
	"testing"
)

// fixturePath maps fixture directories to the synthetic import paths
// they are analyzed under: every fixture poses as a sim-deterministic
// package.
var fixturePath = map[string]string{
	"testdata/src/maprange":  "prosper/internal/mem",
	"testdata/src/wallclock": "prosper/internal/kernel",
	// concurrency uses internal/machine, not internal/sim, so it cannot
	// shadow the real sim package for anything a shared loader imports.
	"testdata/src/concurrency": "prosper/internal/machine",
	"testdata/src/directive":   "prosper/internal/vm",
	// The hostprof fixture poses as a non-sanctioned package (cache) so
	// its clock reads are findings; TestWallclockAllowsHostprofPackage
	// re-analyzes it under the real allowlisted path.
	"testdata/src/hostprof": "prosper/internal/cache",
}

func loadFixtures(t *testing.T, dirs ...string) (*Loader, []*Package) {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		path, ok := fixturePath[dir]
		if !ok {
			t.Fatalf("no fixture path registered for %s", dir)
		}
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			t.Fatal(err)
		}
		if pkg == nil {
			t.Fatalf("fixture %s is empty", dir)
		}
		pkgs = append(pkgs, pkg)
	}
	return l, pkgs
}

// want is one expected finding parsed from a fixture annotation.
type want struct {
	file string
	line int
	pass string
	sub  string
}

var wantRe = regexp.MustCompile(`want:([a-z]+)\s+"([^"]*)"`)

func collectWants(pkgs []*Package) []want {
	var out []want
	for _, pkg := range pkgs {
		for _, name := range pkg.Names {
			for i, lineText := range strings.Split(string(pkg.Src[name]), "\n") {
				for _, m := range wantRe.FindAllStringSubmatch(lineText, -1) {
					out = append(out, want{file: name, line: i + 1, pass: m[1], sub: m[2]})
				}
			}
		}
	}
	return out
}

// checkAgainstWants verifies findings and annotations cover each other:
// every finding must match some want on its (file, line) with the same
// pass and a contained substring, and every want must match at least
// one finding.
func checkAgainstWants(t *testing.T, rep *Report, wants []want) {
	t.Helper()
	matched := make([]bool, len(wants))
	for _, f := range rep.Findings {
		ok := false
		for i, w := range wants {
			if f.File == w.file && f.Line == w.line && f.Pass == w.pass && strings.Contains(f.Message, w.sub) {
				matched[i] = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected finding %s:%d [%s] %s", f.File, f.Line, f.Pass, f.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("missing finding %s:%d [%s] matching %q", w.file, w.line, w.pass, w.sub)
		}
	}
}

func runFixture(t *testing.T, passes []Pass, dirs ...string) *Report {
	t.Helper()
	l, pkgs := loadFixtures(t, dirs...)
	r := &Runner{Loader: l, Passes: passes}
	return r.Analyze(pkgs)
}

func TestMapRangePass(t *testing.T) {
	rep := runFixture(t, []Pass{NewMapRange()}, "testdata/src/maprange")
	_, pkgs := loadFixtures(t, "testdata/src/maprange")
	checkAgainstWants(t, rep, collectWants(pkgs))
	// The five order-independent loop shapes carry directives.
	if rep.Suppressed != 5 {
		t.Errorf("suppressed = %d, want 5 (the reasoned directives)", rep.Suppressed)
	}
}

func TestWallclockPass(t *testing.T) {
	rep := runFixture(t, []Pass{NewWallclock()}, "testdata/src/wallclock")
	_, pkgs := loadFixtures(t, "testdata/src/wallclock")
	checkAgainstWants(t, rep, collectWants(pkgs))
	if rep.Suppressed != 1 {
		t.Errorf("suppressed = %d, want 1 (the hostBoundary site)", rep.Suppressed)
	}
}

func TestWallclockAllowsHostTimingPackages(t *testing.T) {
	// The same fixture analyzed under an approved host-side path
	// produces nothing: the allowlist is by package, not by file.
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir("testdata/src/wallclock", "prosper/internal/runner")
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Loader: l, Passes: []Pass{NewWallclock()}}
	rep := r.Analyze([]*Package{pkg})
	if len(rep.Findings) != 0 {
		t.Errorf("wallclock flagged an allowlisted package: %+v", rep.Findings)
	}
}

// TestWallclockFlagsHostprofShapedCode proves the allowlist extension
// for internal/hostprof did not blunt the pass: the very same clock
// code in any non-sanctioned package is still flagged at every site.
func TestWallclockFlagsHostprofShapedCode(t *testing.T) {
	rep := runFixture(t, []Pass{NewWallclock()}, "testdata/src/hostprof")
	_, pkgs := loadFixtures(t, "testdata/src/hostprof")
	wants := collectWants(pkgs)
	if len(wants) == 0 {
		t.Fatal("hostprof fixture carries no want annotations")
	}
	checkAgainstWants(t, rep, wants)
	if rep.Suppressed != 0 {
		t.Errorf("suppressed = %d, want 0 (fixture has no ignore directives)", rep.Suppressed)
	}
}

// TestWallclockAllowsHostprofPackage analyzes the same fixture under the
// sanctioned prosper/internal/hostprof path: the package owns the
// profiling clock, so the allowlist admits it without directives.
func TestWallclockAllowsHostprofPackage(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir("testdata/src/hostprof", "prosper/internal/hostprof")
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Loader: l, Passes: []Pass{NewWallclock()}}
	rep := r.Analyze([]*Package{pkg})
	if len(rep.Findings) != 0 {
		t.Errorf("wallclock flagged the sanctioned hostprof package: %+v", rep.Findings)
	}
}

func TestConcurrencyPass(t *testing.T) {
	rep := runFixture(t, []Pass{NewConcurrency()}, "testdata/src/concurrency")
	_, pkgs := loadFixtures(t, "testdata/src/concurrency")
	checkAgainstWants(t, rep, collectWants(pkgs))
	if rep.Suppressed != 1 {
		t.Errorf("suppressed = %d, want 1 (the handoff channel field)", rep.Suppressed)
	}
}

// TestDirectiveSemantics pins suppression placement and malformed-
// directive reporting end to end. Directive findings land on comment
// lines, which cannot carry a second annotation comment, so the
// expectations are explicit.
func TestDirectiveSemantics(t *testing.T) {
	rep := runFixture(t, []Pass{NewMapRange(), NewWallclock()}, "testdata/src/directive")
	type exp struct {
		line int
		pass string
		sub  string
	}
	file := "testdata/src/directive/directive.go"
	expected := []exp{
		{25, "wallclock", "time.Now"}, // gap: blank line breaks reach
		{30, "directive", `unknown pass "wallclocks"`},
		{31, "wallclock", "time.Now"}, // unknown pass suppresses nothing
		{36, "wallclock", "time.Now"}, // malformed directive suppresses nothing
		{36, "directive", "missing a reason"},
		{41, "wallclock", "time.Now"},
		{41, "directive", "unknown prosperlint directive"},
	}
	var got []exp
	for _, f := range rep.Findings {
		if f.File != file {
			t.Errorf("finding in unexpected file: %+v", f)
			continue
		}
		got = append(got, exp{f.Line, f.Pass, f.Message})
	}
	if len(got) != len(expected) {
		t.Fatalf("got %d findings, want %d:\n%+v", len(got), len(expected), rep.Findings)
	}
	for i, e := range expected {
		g := got[i]
		if g.line != e.line || g.pass != e.pass || !strings.Contains(g.sub, e.sub) {
			t.Errorf("finding %d = %d [%s] %q, want line %d [%s] containing %q",
				i, g.line, g.pass, g.sub, e.line, e.pass, e.sub)
		}
	}
	// eol + preceding + commaList(maprange, wallclock) = 4 suppressions.
	if rep.Suppressed != 4 {
		t.Errorf("suppressed = %d, want 4", rep.Suppressed)
	}
}

// TestSelfClean is the in-repo version of the CI gate: the shipped
// tree, including the analyzer itself, must lint clean.
func TestSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	r, err := NewRunner(".")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Findings {
		t.Errorf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Pass, f.Message)
	}
	if rep.Packages == 0 {
		t.Error("no packages analyzed")
	}
}

// TestPassNamesStable: directives written in source reference these
// names; renaming a pass is a breaking change and must be deliberate.
func TestPassNamesStable(t *testing.T) {
	var names []string
	for _, p := range AllPasses() {
		if p.Doc() == "" {
			t.Errorf("pass %s has no doc line", p.Name())
		}
		names = append(names, p.Name())
	}
	got := strings.Join(names, " ")
	if got != "maprange wallclock concurrency" {
		t.Errorf("pass suite = %q", got)
	}
}

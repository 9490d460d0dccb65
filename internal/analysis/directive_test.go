package analysis

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func parseDirectives(t *testing.T, src string) []Directive {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "dir_test.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("fixture source does not parse: %v", err)
	}
	return ParseDirectives(fset, f, []byte(src))
}

func TestParseDirectives(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []Directive
	}{
		{
			name: "eol targets its own line",
			src: `package p
func f() {
	g() //prosperlint:ignore wallclock host timing
}
`,
			want: []Directive{{
				Verb: "ignore", Line: 3, Target: 3,
				Passes: []string{"wallclock"},
				Reason: "host timing",
			}},
		},
		{
			name: "standalone targets the next line",
			src: `package p
func f() {
	//prosperlint:ignore maprange order independent
	g()
}
`,
			want: []Directive{{
				Verb: "ignore", Line: 3, Target: 4,
				Passes: []string{"maprange"},
				Reason: "order independent",
			}},
		},
		{
			name: "comma list carries every pass",
			src: `package p
func f() {
	g() //prosperlint:ignore maprange,wallclock both are fine here
}
`,
			want: []Directive{{
				Verb: "ignore", Line: 3, Target: 3,
				Passes: []string{"maprange", "wallclock"},
				Reason: "both are fine here",
			}},
		},
		{
			name: "missing reason is an error",
			src: `package p
func f() {
	g() //prosperlint:ignore wallclock
}
`,
			want: []Directive{{
				Verb: "ignore", Line: 3, Target: 3,
				Passes: []string{"wallclock"},
				Err:    "ignore directive is missing a reason: every suppression must say why the finding is safe",
			}},
		},
		{
			name: "missing pass name is an error",
			src: `package p
func f() {
	g() //prosperlint:ignore
}
`,
			want: []Directive{{
				Verb: "ignore", Line: 3, Target: 3,
				Err: "ignore directive is missing a pass name: want //prosperlint:ignore <pass> <reason>",
			}},
		},
		{
			name: "empty element in a comma list is an error",
			src: `package p
func f() {
	g() //prosperlint:ignore ,maprange trailing comma
}
`,
			want: []Directive{{
				Verb: "ignore", Line: 3, Target: 3,
				Err: "ignore directive has an empty pass name in its pass list",
			}},
		},
		{
			name: "unknown verb is an error",
			src: `package p
func f() {
	g() //prosperlint:silence wallclock because reasons
}
`,
			want: []Directive{{
				Verb: "silence", Line: 3, Target: 3,
				Err: `unknown prosperlint directive //prosperlint:silence (only "ignore" exists)`,
			}},
		},
		{
			name: "hotpath is an unknown verb",
			src: `package p
//prosperlint:hotpath per-access entry point
func f() {
}
`,
			want: []Directive{{
				Verb: "hotpath", Line: 2, Target: 3,
				Err: `unknown prosperlint directive //prosperlint:hotpath (only "ignore" exists)`,
			}},
		},
		{
			name: "spaced comment is not a directive",
			src: `package p
func f() {
	g() // prosperlint:ignore wallclock not machine readable
}
`,
			want: nil,
		},
		{
			name: "unrelated comments produce nothing",
			src: `package p
// just a doc comment
func f() {
	g() // trailing prose
}
`,
			want: nil,
		},
		{
			name: "multi word reason survives intact",
			src: `package p
func f() {
	//prosperlint:ignore concurrency unbuffered handoff; deterministic by construction
	g()
}
`,
			want: []Directive{{
				Verb: "ignore", Line: 3, Target: 4,
				Passes: []string{"concurrency"},
				Reason: "unbuffered handoff; deterministic by construction",
			}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := parseDirectives(t, tc.src)
			// Column positions depend on tab width in the fixture;
			// zero them so cases only assert semantics.
			for i := range got {
				got[i].Col = 0
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("ParseDirectives =\n%+v\nwant\n%+v", got, tc.want)
			}
		})
	}
}

func TestDirectiveMatchesPass(t *testing.T) {
	d := Directive{Verb: "ignore", Passes: []string{"maprange", "wallclock"}}
	for pass, want := range map[string]bool{
		"maprange":    true,
		"wallclock":   true,
		"concurrency": false,
		"":            false,
	} {
		if got := d.matchesPass(pass); got != want {
			t.Errorf("matchesPass(%q) = %v, want %v", pass, got, want)
		}
	}
	// A directive with an unknown verb never suppresses findings,
	// whatever passes it names.
	h := Directive{Verb: "silence", Passes: []string{"maprange"}}
	if h.matchesPass("maprange") {
		t.Error("unknown-verb directive matched a pass; only ignore directives suppress")
	}
}

func TestDirectiveOnFirstCodeLine(t *testing.T) {
	src := `package p
//prosperlint:ignore wallclock file-leading directive
var t0 = now()

func now() int64 { return 0 }
`
	got := parseDirectives(t, src)
	if len(got) != 1 {
		t.Fatalf("got %d directives, want 1", len(got))
	}
	if got[0].Err != "" || got[0].Target != 3 {
		t.Errorf("directive = %+v, want valid with Target 3", got[0])
	}
	if !strings.Contains(got[0].Reason, "file-leading") {
		t.Errorf("reason = %q", got[0].Reason)
	}
}

// TestRetiredDirectivesAreFindings runs the full pass suite over a
// package carrying a directive for a retired verb or pass: each must
// come back as a directive finding, so a leftover annotation fails lint
// instead of silently marking or suppressing nothing.
func TestRetiredDirectivesAreFindings(t *testing.T) {
	for _, tc := range []struct{ directive, sub string }{
		{"//prosperlint:hotpath r", "unknown prosperlint directive //prosperlint:hotpath"},
		{"//prosperlint:ignore hotalloc r", `directive names unknown pass "hotalloc"`},
		{"//prosperlint:ignore ownership r", `directive names unknown pass "ownership"`},
		{"//prosperlint:ignore statskeys r", `directive names unknown pass "statskeys"`},
	} {
		t.Run(tc.directive, func(t *testing.T) {
			dir := t.TempDir()
			src := "package p\n\n" + tc.directive + "\nfunc f() {}\n"
			if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
			l, err := NewLoader(".")
			if err != nil {
				t.Fatal(err)
			}
			pkg, err := l.LoadDir(dir, "prosper/internal/vm")
			if err != nil {
				t.Fatal(err)
			}
			rep := (&Runner{Loader: l, Passes: AllPasses()}).Analyze([]*Package{pkg})
			if len(rep.Findings) != 1 {
				t.Fatalf("got %d findings, want 1: %+v", len(rep.Findings), rep.Findings)
			}
			f := rep.Findings[0]
			if f.Pass != DirectivePass || f.Line != 3 || !strings.Contains(f.Message, tc.sub) {
				t.Errorf("finding = %+v, want [%s] on line 3 containing %q", f, DirectivePass, tc.sub)
			}
		})
	}
}

package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestNewLoaderFindsModule(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if l.Module != "prosper" {
		t.Errorf("Module = %q, want %q", l.Module, "prosper")
	}
	if !filepath.IsAbs(l.Root) {
		t.Errorf("Root = %q, want an absolute path", l.Root)
	}
}

func TestLoadPlainDirectoryPattern(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load([]string{"internal/stats"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "prosper/internal/stats" {
		t.Fatalf("Load(internal/stats) = %+v", pkgs)
	}
	p := pkgs[0]
	if len(p.Files) == 0 || p.Pkg == nil || p.Info == nil {
		t.Error("loaded package is missing syntax or type info")
	}
	for _, name := range p.Names {
		if strings.HasSuffix(name, "_test.go") {
			t.Errorf("test file %s was loaded; the contract excludes tests", name)
		}
	}
}

func TestLoadEllipsisSkipsTestdata(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load([]string{"internal/analysis/..."})
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
		if strings.Contains(p.Path, "testdata") {
			t.Errorf("pattern expansion descended into testdata: %s", p.Path)
		}
	}
	if len(pkgs) != 1 || pkgs[0].Path != "prosper/internal/analysis" {
		t.Errorf("Load(internal/analysis/...) = %v", paths)
	}
}

func TestLoadDirCaches(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	a, err := l.LoadDir("testdata/src/wallclock", "prosper/internal/kernel")
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.LoadDir("testdata/src/wallclock", "prosper/internal/kernel")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second LoadDir of the same import path did not hit the cache")
	}
}

func TestLoadDirErrors(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.LoadDir("testdata/no/such/dir", "prosper/internal/nope"); err == nil {
		t.Error("missing directory did not error")
	}
	// The testdata root itself holds no Go files: that is (nil, nil),
	// not an error, so ... expansion can pass over bare directories.
	pkg, err := l.LoadDir("testdata", "prosper/internal/analysis/testdata")
	if err != nil || pkg != nil {
		t.Errorf("empty directory: got (%v, %v), want (nil, nil)", pkg, err)
	}
}

func TestImportResolvesModuleAndStd(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := l.Import("prosper/internal/stats")
	if err != nil {
		t.Fatal(err)
	}
	if mod.Path() != "prosper/internal/stats" {
		t.Errorf("module import resolved to %q", mod.Path())
	}
	std, err := l.Import("sort")
	if err != nil {
		t.Fatal(err)
	}
	if std.Path() != "sort" {
		t.Errorf("std import resolved to %q", std.Path())
	}
}

// TestLoaderUnresolvedImport pins the Loader's failure mode on a
// module-local import that maps to no directory: a descriptive error,
// not a panic or a silent nil package.
func TestLoaderUnresolvedImport(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	_, err = l.LoadDir("testdata/src/badimport", "prosper/internal/badimport")
	if err == nil {
		t.Fatal("LoadDir succeeded on a package with an unresolvable module-local import")
	}
	if !strings.Contains(err.Error(), "prosper/internal/definitely/missing") {
		t.Errorf("error does not name the missing import path: %v", err)
	}
}

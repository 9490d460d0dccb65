package analysis

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestDomainOf(t *testing.T) {
	for path, want := range map[string]string{
		"prosper/internal/cache":        "cache",
		"prosper/internal/sim/par":      "sim",
		"prosper/internal/mem":          "mem",
		"example.com/other/internal/vm": "vm",
		"prosper":                       "prosper",
		"some/plain/pkg":                "pkg",
		"pkg":                           "pkg",
	} {
		if got := domainOf(path); got != want {
			t.Errorf("domainOf(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestOwnershipPerPackage analyzes the writing side of the fixture pair
// on its own and expects exactly the ownership findings the whole-fixture
// golden records: the pass needs only the package it is looking at.
// fixowner is still loaded, because fixwriter's import of it must
// type-check, but it is not handed to the runner.
func TestOwnershipPerPackage(t *testing.T) {
	l, pkgs := loadFixtures(t, "testdata/src/ownership/fixowner", "testdata/src/ownership/fixwriter")
	r := &Runner{Loader: l, Passes: []Pass{NewOwnership()}}
	got := r.Analyze(pkgs[1:]).Relativized(filepath.Join("testdata", "src")).Findings

	raw, err := os.ReadFile(filepath.Join("testdata", "golden", "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden Report
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	var want []Finding
	for _, f := range golden.Findings {
		if f.Pass == "ownership" {
			want = append(want, f)
		}
	}
	if len(want) == 0 {
		t.Fatal("golden report carries no ownership findings")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fixwriter alone:\n%+v\nwant the golden's ownership findings:\n%+v", got, want)
	}
}

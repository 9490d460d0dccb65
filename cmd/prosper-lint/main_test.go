package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestListPasses(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, ".", &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	for _, name := range []string{"maprange", "wallclock", "concurrency", "directive"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output is missing %q:\n%s", name, out.String())
		}
	}
}

func TestCleanPackageExitsZero(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"internal/stats"}, ".", &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d on a clean package\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "0 finding(s)") {
		t.Errorf("summary missing from output: %s", out.String())
	}
}

func TestFindingsExitOne(t *testing.T) {
	// The wallclock fixture analyzed under its on-disk import path
	// still violates the wallclock pass (which scans every package
	// outside the host-side allowlist), so pointing the CLI straight
	// at the testdata directory must fail the gate.
	var out, errb bytes.Buffer
	code := run([]string{"internal/analysis/testdata/src/wallclock"}, ".", &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "[wallclock]") {
		t.Errorf("findings missing from text output: %s", out.String())
	}
}

func TestJSONOutput(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-json", "internal/analysis/testdata/src/wallclock"}, ".", &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errb.String())
	}
	var rep struct {
		Module   string
		Packages int
		Findings []struct {
			Pass, File, Message string
			Line, Col           int
		}
		Suppressed int
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if rep.Module != "prosper" || len(rep.Findings) == 0 {
		t.Errorf("report = %+v", rep)
	}
	for _, f := range rep.Findings {
		if strings.Contains(f.File, "\\") {
			t.Errorf("file path %q is not slash-separated", f.File)
		}
		if f.Line == 0 || f.Pass == "" || f.Message == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
	}
}

func TestBadUsageExitsTwo(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-definitely-not-a-flag"}, ".", &out, &errb); code != 2 {
		t.Errorf("unknown flag: exit = %d, want 2", code)
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"no/such/dir"}, ".", &out, &errb); code != 2 {
		t.Errorf("missing dir: exit = %d, want 2; stdout: %s", code, out.String())
	}
}

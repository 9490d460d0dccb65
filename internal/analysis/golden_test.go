package analysis

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenJSON runs the full pass suite over every fixture package in
// one Analyze call and pins the -json rendering byte for byte. This is
// the contract CI archives: stable field names, sorted findings,
// forward-slash relative paths, trailing newline.
func TestGoldenJSON(t *testing.T) {
	dirs := []string{
		"testdata/src/concurrency",
		"testdata/src/directive",
		"testdata/src/maprange",
		"testdata/src/wallclock",
	}
	l, pkgs := loadFixtures(t, dirs...)
	r := &Runner{Loader: l, Passes: AllPasses()}
	rep := r.Analyze(pkgs)

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf, filepath.Join("testdata", "src")); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "golden", "report.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("JSON report drifted from %s (run with -update if intended)\n--- got ---\n%s", golden, buf.Bytes())
	}
}

// TestGoldenText pins the human-readable rendering's shape on the same
// fixture sweep: one finding per line plus the summary.
func TestGoldenText(t *testing.T) {
	l, pkgs := loadFixtures(t, "testdata/src/wallclock")
	r := &Runner{Loader: l, Passes: []Pass{NewWallclock()}}
	rep := r.Analyze(pkgs)

	var buf bytes.Buffer
	rep.WriteText(&buf, filepath.Join("testdata", "src", "wallclock"))
	got := buf.String()
	want := "" +
		"wallclock.go:15:11: [wallclock] time.Now reads the host clock: sim code must use sim.Time/Engine cycles (host-side timing needs an ignore directive)\n" +
		"wallclock.go:17:15: [wallclock] time.Since reads the host clock: sim code must use sim.Time/Engine cycles (host-side timing needs an ignore directive)\n" +
		"wallclock.go:22:9: [wallclock] rand.Intn uses the process-global random source: use a seeded sim.Rand or rand.New(rand.NewSource(seed))\n" +
		"prosper-lint: 3 finding(s) in 1 package(s), 1 suppressed\n"
	if got != want {
		t.Errorf("text rendering drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestProfilesWrittenInEveryMode: -cpuprofile and -memprofile must each
// leave a non-empty file whichever mode runs, including the modes that
// return before the figures and a run that exits 2 on a bad name.
func TestProfilesWrittenInEveryMode(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"figure", []string{"-ops", "2000", "-progress=false", "fig2"}, 0},
		{"crash-sweep", []string{"-crash-sweep", "-crash-points", "2"}, 0},
		{"list", []string{"-list"}, 0},
		{"unknown experiment", []string{"nope"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cpu := filepath.Join(dir, tc.name+".cpu")
			heap := filepath.Join(dir, tc.name+".heap")
			args := append([]string{"-cpuprofile", cpu, "-memprofile", heap}, tc.args...)
			if got := run(args, io.Discard, io.Discard); got != tc.want {
				t.Fatalf("run(%q) = %d, want %d", args, got, tc.want)
			}
			for _, path := range []string{cpu, heap} {
				fi, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				if fi.Size() == 0 {
					t.Errorf("%s is empty", path)
				}
			}
		})
	}
}

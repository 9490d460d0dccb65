package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunStatsDump: the default run passes fsck and its -stats dump has
// one line per distinct key, ending with the engine's clock and event
// count.
func TestRunStatsDump(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-stats"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	head, dump, ok := strings.Cut(out, "\n\n")
	if !ok || !strings.Contains(head, "fsck               clean") {
		t.Fatalf("no clean fsck line before the dump:\n%s", head)
	}
	lines := strings.Split(strings.TrimSuffix(dump, "\n"), "\n")
	seen := map[string]bool{}
	var keys []string
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("unparseable dump line %q", line)
		}
		if seen[f[0]] {
			t.Fatalf("dump key %q appears twice", f[0])
		}
		seen[f[0]] = true
		keys = append(keys, f[0])
	}
	if n := len(keys); n < 3 || keys[n-2] != "sim.cycles" || keys[n-1] != "sim.events" {
		t.Fatalf("dump does not end with sim.cycles, sim.events: %v", keys[max(0, len(keys)-3):])
	}
}

// TestRunRejectsBadArgs: bad arguments exit 2 with a message and no
// run; Prosper on both segments and thread or core counts below one are
// refused before Spawn would panic or the machine default would
// silently replace them.
func TestRunRejectsBadArgs(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-stack", "bogus"}, `unknown stack mechanism "bogus"`},
		{[]string{"-heap", "bogus"}, `unknown heap mechanism "bogus"`},
		{[]string{"-workload", "bogus"}, `unknown workload "bogus"`},
		{[]string{"-stack", "prosper", "-heap", "prosper"}, "cannot share the Prosper tracker"},
		{[]string{"-stack", "prosper", "-heap", "prosper-adaptive"}, "cannot share the Prosper tracker"},
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
		{[]string{"-threads", "0"}, "-threads must be at least 1, got 0"},
		{[]string{"-threads", "-1"}, "-threads must be at least 1, got -1"},
		{[]string{"-cores", "0"}, "-cores must be at least 1, got 0"},
		{[]string{"-cores", "-2"}, "-cores must be at least 1, got -2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr %q does not mention %q", tc.args, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed a report:\n%s", tc.args, stdout.String())
		}
	}
}

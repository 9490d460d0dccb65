package stats

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRunLogProgressLine(t *testing.T) {
	var buf bytes.Buffer
	l := NewRunLog(&buf)
	l.Record(RunRecord{Name: "fig8/gapbs_pr/base", SimCycles: 600_000, Wall: 20 * time.Millisecond})
	l.Record(RunRecord{Name: "fig8/gapbs_pr/prosper", SimCycles: 300_000, Wall: 0})

	want := "  run fig8/gapbs_pr/base                                 600000 cycles    0.020s  (30.0 Mcycles/s)\n" +
		"  run fig8/gapbs_pr/prosper                              300000 cycles    0.000s\n"
	if got := buf.String(); got != want {
		t.Fatalf("progress lines:\n%q\nwant:\n%q", got, want)
	}
}

func TestRunLogConcurrentRecords(t *testing.T) {
	var buf bytes.Buffer
	l := NewRunLog(&buf)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Record(RunRecord{Name: "r", SimCycles: 1, Wall: time.Microsecond})
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 32 {
		t.Fatalf("lines = %d, want 32", len(lines))
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "  run r ") || !strings.HasSuffix(line, "Mcycles/s)") {
			t.Fatalf("interleaved or malformed line %q", line)
		}
	}
}

package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCountersBasic(t *testing.T) {
	c := NewCounters()
	c.Inc("a")
	c.Add("b", 10)
	c.Inc("a")
	if c.Get("a") != 2 {
		t.Fatalf("a = %d, want 2", c.Get("a"))
	}
	if c.Get("b") != 10 {
		t.Fatalf("b = %d, want 10", c.Get("b"))
	}
	if c.Get("missing") != 0 {
		t.Fatal("missing counter should read zero")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
}

func TestCountersSnapshotIsCopy(t *testing.T) {
	c := NewCounters()
	c.Add("a", 5)
	snap := c.Snapshot()
	c.Add("a", 5)
	if snap["a"] != 5 {
		t.Fatal("snapshot mutated by later Add")
	}
}

// Property: a histogram quantile is monotonic in q and bounded by the
// observed min/max.
func TestPercentileMonotonicProperty(t *testing.T) {
	f := func(vals []uint32, a, b uint8) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range vals {
			h.Observe(uint64(v))
		}
		qa, qb := float64(a%101)/100, float64(b%101)/100
		if qa > qb {
			qa, qb = qb, qa
		}
		va, vb := h.Quantile(qa), h.Quantile(qb)
		return va <= vb && va >= h.Min() && vb <= h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("beta", 12345.0)
	out := tb.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "alpha") {
		t.Fatalf("table output missing content:\n%s", out)
	}
	if !strings.Contains(out, "1.5000") {
		t.Fatalf("float formatting wrong:\n%s", out)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
}

// TestLazyCounterMatchesStringInc drives two counter sets through the
// same sequence of increments, one by name and one through Lazy handles
// made up front, and checks they end with the same registration order
// and values. A handle that is never incremented must leave its name
// absent, exactly like a string-keyed Inc that never runs.
func TestLazyCounterMatchesStringInc(t *testing.T) {
	byName, byHandle := NewCounters(), NewCounters()
	names := []string{"core.stores", "core.loads", "core.never", "core.page_walks"}
	handles := make([]LazyCounter, len(names))
	for i, n := range names {
		handles[i] = byHandle.Lazy(n)
	}
	byName.Inc("pre.registered")
	byHandle.Inc("pre.registered")
	for _, i := range []int{3, 0, 0, 1, 3, 0} {
		byName.Inc(names[i])
		handles[i].Inc()
	}
	byName.Add(names[1], 5)
	handles[1].Add(5)
	if got, want := byHandle.Names(), byName.Names(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("names = %v, want %v", got, want)
	}
	for _, n := range byName.Names() {
		if got, want := byHandle.Get(n), byName.Get(n); got != want {
			t.Fatalf("%s = %d, want %d", n, got, want)
		}
	}
	if byHandle.Get("core.never") != 0 || len(byHandle.Names()) != 4 {
		t.Fatalf("untouched handle registered its name: %v", byHandle.Names())
	}
}

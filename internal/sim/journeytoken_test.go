package sim

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// TestDoneSize pins the completion token at four words. Tokens are
// copied by value on every completion down the memory hierarchy, so a
// fifth word costs every access; the snapshot resume key that once
// rode in the token was such a word.
func TestDoneSize(t *testing.T) {
	if got := unsafe.Sizeof(Done{}); got != 32 {
		t.Fatalf("sim.Done is %d bytes, want 32", got)
	}
}

// TestDoneJourneySlot pins the packed journey-ID slot on completion
// tokens: WithJourney is a value transform (the original token is
// untouched), Journey round-trips the ID, and a zero token carries 0.
func TestDoneJourneySlot(t *testing.T) {
	fn := func() {}
	tok := Thunk(CompMem, fn)
	if tok.Journey() != 0 {
		t.Fatalf("fresh token carries jid %d, want 0", tok.Journey())
	}
	tagged := tok.WithJourney(7)
	if tagged.Journey() != 7 {
		t.Fatalf("tagged token carries jid %d, want 7", tagged.Journey())
	}
	if tok.Journey() != 0 {
		t.Fatal("WithJourney mutated the original token")
	}
	bound := Bind(CompCache, func(uint64) {}, 3).WithJourney(9)
	if bound.Journey() != 9 {
		t.Fatalf("bound token carries jid %d, want 9", bound.Journey())
	}
}

// TestDoneStampKeepsOwner pins the shared owner/journey word: stamping
// any ID, by value or in place, leaves the owner intact, and restamping
// replaces the ID rather than merging into it.
func TestDoneStampKeepsOwner(t *testing.T) {
	for _, comp := range Components() {
		for _, jid := range []uint32{1, 0x8000_0001, ^uint32(0)} {
			tok := Bind(comp, func(uint64) {}, 3).WithJourney(jid)
			if tok.Component() != comp || tok.Journey() != jid {
				t.Fatalf("WithJourney(%#x) on a %s token: owner %s, jid %#x", jid, comp, tok.Component(), tok.Journey())
			}
			tok.Stamp(5)
			if tok.Component() != comp || tok.Journey() != 5 {
				t.Fatalf("Stamp(5) after %#x on a %s token: owner %s, jid %#x", jid, comp, tok.Component(), tok.Journey())
			}
			tok.Stamp(0)
			if tok.Component() != comp || tok.Journey() != 0 || tok.Arg() != 3 {
				t.Fatalf("Stamp(0) on a %s token: owner %s, jid %#x, arg %d", comp, tok.Component(), tok.Journey(), tok.Arg())
			}
		}
	}
}

// TestJourneyTokenPreservesOrder proves that tagging completion tokens
// with journey IDs never perturbs the engine's (when, seq) firing order:
// the jid rides dead weight in the token, invisible to the scheduler.
func TestJourneyTokenPreservesOrder(t *testing.T) {
	run := func(delays []uint16, tag bool) []int {
		e := NewEngine()
		var got []int
		for i, d := range delays {
			id := i
			tok := Thunk(Component(i%NumComponents), func() { got = append(got, id) })
			if tag {
				tok = tok.WithJourney(uint32(i + 1))
			}
			e.ScheduleDone(Time(d), tok)
		}
		e.Run()
		return got
	}
	f := func(delays []uint16) bool {
		if len(delays) > 128 {
			delays = delays[:128]
		}
		plain := run(delays, false)
		tagged := run(delays, true)
		if len(plain) != len(tagged) {
			return false
		}
		for i := range plain {
			if plain[i] != tagged[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestJourneyTokenSteadyStateAllocs pins that scheduling journey-tagged
// tokens allocates nothing: the ID shares the owner's word of the token.
func TestJourneyTokenSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	tok := Thunk(CompMem, fn).WithJourney(5)
	allocs := testing.AllocsPerRun(500, func() {
		for i := 0; i < 32; i++ {
			e.ScheduleDone(Time(i%5), tok)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("journey-tagged scheduling allocates %.1f objects per batch, want 0", allocs)
	}
}

package persist_test

import (
	"testing"

	"prosper"
	"prosper/internal/crash"
	"prosper/internal/persist"
)

// TestByName pins the one mechanism-name table: every listed name builds
// a mechanism reporting that name, and the names the crash sweep and
// the public API use all resolve through it.
func TestByName(t *testing.T) {
	for _, name := range persist.Names() {
		f, ok := persist.ByName(name)
		if !ok {
			t.Fatalf("ByName(%q) does not resolve a listed name", name)
		}
		if got := f().Name(); got != name {
			t.Errorf("ByName(%q) built a mechanism named %q", name, got)
		}
	}
	for _, name := range crash.Mechanisms() {
		if _, ok := persist.ByName(name); !ok {
			t.Errorf("crash mechanism %q does not resolve", name)
		}
	}
	for m := prosper.MechNone; m <= prosper.MechProsperAdaptive; m++ {
		if _, ok := persist.ByName(m.String()); !ok {
			t.Errorf("public mechanism %q does not resolve", m)
		}
	}
	if _, ok := persist.ByName("bogus"); ok {
		t.Error(`ByName("bogus") resolved`)
	}
}

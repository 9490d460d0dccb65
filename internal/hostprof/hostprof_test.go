package hostprof

import "testing"

func TestNanotimeMonotonic(t *testing.T) {
	a := Nanotime()
	b := Nanotime()
	if b < a {
		t.Fatalf("Nanotime went backwards: %d then %d", a, b)
	}
}

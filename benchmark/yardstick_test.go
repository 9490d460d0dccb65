package main

import (
	"math"
	"testing"

	"prosper/internal/kernel"
	"prosper/internal/machine"
	"prosper/internal/sim"
)

func TestScale(t *testing.T) {
	ref := reading{chase: refChaseNS, keys: refMapNS}
	for _, tc := range []struct {
		name string
		a, b reading
		want float64
	}{
		{"reference speed", ref, ref, 1},
		{"twice as slow throughout", reading{2 * refChaseNS, 2 * refMapNS}, reading{2 * refChaseNS, 2 * refMapNS}, 0.5},
		{"slowed from the second reading: each yardstick averages its two", ref, reading{3 * refChaseNS, 3 * refMapNS}, 0.5},
		{"only the chase slowed: the two yardsticks average", reading{2 * refChaseNS, refMapNS}, reading{2 * refChaseNS, refMapNS}, 0.75},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := scale(tc.a, tc.b); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("scale = %g, want %g", got, tc.want)
			}
		})
	}
}

// TestMeterRunFor: the chunked run reaches the same simulated time as
// RunFor, including a zero-length phase, and the meter records it.
func TestMeterRunFor(t *testing.T) {
	k := kernel.New(kernel.Config{Machine: machine.Config{Cores: 1}, Quantum: 100 * sim.Microsecond})
	m := newMeter(stick)
	m.begin()
	m.runFor(k, 0)
	if k.Eng.Now() != 0 {
		t.Fatalf("runFor(0) moved the clock to %d", k.Eng.Now())
	}
	m.runFor(k, 10*chunk+chunk/3)
	if want := 10*chunk + chunk/3; k.Eng.Now() != want {
		t.Errorf("clock %d, want %d", k.Eng.Now(), want)
	}
	wall, ref := m.totals()
	if wall <= 0 || ref <= 0 {
		t.Errorf("totals wall %g ref %g, want both > 0", wall, ref)
	}
	if r := stick.read(); r.chase <= 0 || r.keys <= 0 {
		t.Errorf("yardstick reading %+v", r)
	}
}

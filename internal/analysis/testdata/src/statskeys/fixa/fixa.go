// Package fixa is a prosper-lint fixture for the statskeys pass: it
// registers metric keys against the real stats APIs.
package fixa

import "prosper/internal/stats"

func register(c *stats.Counters, h *stats.Histograms) {
	c.Inc("tlb_hits") // want:statskeys "registered by 2 packages"
	c.Inc("fixa_only_key")
	c.Add("fixa.requests", 1)
	c.Handle("TLB.Hits")     // want:statskeys "not a lowercase dotted identifier"
	c.Add("fixa.bad key", 0) // want:statskeys "not a lowercase dotted identifier"
	h.New("fixa.latency")
	h.New("Latency") // want:statskeys "not a lowercase dotted identifier"
}

// Package concurrency is a prosper-lint fixture for the concurrency
// pass; it is type-checked under a sim-deterministic import path.
package concurrency

import "sync"

var mu sync.Mutex // want:concurrency "sync.Mutex"

type gen struct {
	ops chan int // want:concurrency "channel type"
}

func start(g *gen) {
	g.ops = make(chan int) // want:concurrency "channel type"
	go fill(g.ops)         // want:concurrency "goroutine spawn"
}

func fill(ops chan int) { // want:concurrency "channel type"
	for i := 0; i < 4; i++ {
		ops <- i // want:concurrency "channel send"
	}
	close(ops) // want:concurrency "close of a channel"
}

func drainOne(g *gen) int {
	return <-g.ops // want:concurrency "channel receive"
}

func drainAll(g *gen) int {
	n := 0
	for range g.ops { // want:concurrency "range over a channel"
		n++
	}
	return n
}

func either(a, b *gen) int {
	select { // want:concurrency "select statement"
	case v := <-a.ops: // want:concurrency "channel receive"
		return v
	case v := <-b.ops: // want:concurrency "channel receive"
		return v
	}
}

// locked shows that only declaration sites are flagged: the method
// calls below go through a variable, not the sync package selector.
func locked(f func()) {
	mu.Lock()
	defer mu.Unlock()
	f()
}

// handoff shows a site that a reasoned directive suppresses.
type handoff struct {
	//prosperlint:ignore concurrency fixture: unbuffered handoff keeps the generator deterministic
	stop chan struct{}
}

package runner

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Plan is a named list of run specs. The order of Specs defines the
// order of results, independent of execution interleaving.
type Plan struct {
	Name  string
	Specs []Spec
}

// Result is the outcome of one spec of a plan.
type Result struct {
	Index int // position in the plan
	Spec  Spec
	Stats RunStats
	Wall  time.Duration // real time the run took
	Err   error         // non-nil if the run panicked
}

// Executor fans a plan's specs out over a bounded worker pool. The zero
// value is ready to use and runs GOMAXPROCS specs at a time.
type Executor struct {
	// Workers bounds the number of concurrently executing specs;
	// values <= 0 mean runtime.GOMAXPROCS(0).
	Workers int
	// OnDone, when non-nil, is invoked as each spec completes — in
	// completion order, not plan order, and from worker goroutines, so
	// it must be safe for concurrent use.
	OnDone func(Result)
}

// Execute runs every spec of the plan and returns all results in plan
// order. A spec that panics is recovered and reported in its Result's
// Err (tagged with the spec's label); the remaining specs still run.
func (e *Executor) Execute(p Plan) []Result {
	results := make([]Result, len(p.Specs))
	pool(e.Workers, len(p.Specs), func(i int) {
		results[i] = e.runOne(p, i)
		if e.OnDone != nil {
			e.OnDone(results[i])
		}
	})
	return results
}

// Run is Execute reduced to the common case: it returns the RunStats in
// plan order, or an error joining every recovered panic.
func (e *Executor) Run(p Plan) ([]RunStats, error) {
	results := e.Execute(p)
	out := make([]RunStats, len(results))
	var errs []error
	for i, r := range results {
		out[i] = r.Stats
		if r.Err != nil {
			errs = append(errs, r.Err)
		}
	}
	return out, errors.Join(errs...)
}

func (e *Executor) runOne(p Plan, i int) (res Result) {
	sp := p.Specs[i]
	res = Result{Index: i, Spec: sp}
	start := time.Now()
	defer func() {
		res.Wall = time.Since(start)
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("runner: plan %q spec %d (%s) panicked: %v",
				p.Name, i, sp.DisplayLabel(), r)
		}
	}()
	res.Stats = sp.Run()
	return res
}

// ForEach runs fn(0), ..., fn(n-1) across a pool of at most workers
// goroutines (<= 0 means GOMAXPROCS) and blocks until all complete.
// Iterations must be independent of each other; results should be
// written to per-index slots. If any iteration panics, the first panic
// (by index) is re-raised on the caller's goroutine after every other
// iteration has finished — matching what a plain sequential loop would
// have done. It is the escape hatch for measurement loops that do not
// produce RunStats (trace captures, Spec.OpWindow runs) but still fan out
// over independent deterministic simulations.
func ForEach(workers, n int, fn func(i int)) {
	panics := make([]any, n)
	pool(workers, n, func(i int) {
		defer func() { panics[i] = recover() }()
		fn(i)
	})
	for i, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("runner: ForEach iteration %d panicked: %v", i, p))
		}
	}
}

// pool calls fn(0), ..., fn(n-1) on at most workers goroutines (<= 0
// means GOMAXPROCS) and returns when every call has returned. fn must
// not panic: both callers recover per index.
func pool(workers, n int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

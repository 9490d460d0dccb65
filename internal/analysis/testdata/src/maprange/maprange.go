// Package maprange is a prosper-lint fixture: it is type-checked under
// a sim-deterministic import path, and every flagged line carries a
// `want:<pass> "<substring>"` annotation consumed by analysis_test.go.
// The pass flags every map range at its `for` line; an order-independent
// loop shape passes only with a reasoned directive.
package maprange

import "sort"

type sched struct{ events []uint64 }

func (s *sched) Schedule(e uint64) { s.events = append(s.events, e) }

// collectSorted collects keys, sorts them, then uses them.
func collectSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m { //prosperlint:ignore maprange fixture: keys sorted before use
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// collectUnsorted gathers keys but never establishes an order.
func collectUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m { // want:maprange "iteration order is random"
		keys = append(keys, k)
	}
	return keys
}

// accumulate uses commutative integer math.
func accumulate(m map[string]uint64) uint64 {
	var sum uint64
	n := 0
	//prosperlint:ignore maprange fixture: commutative integer sums
	for _, v := range m {
		sum += v
		n++
	}
	return sum + uint64(n)
}

// floatSum rounds differently depending on iteration order.
func floatSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want:maprange "iteration order is random"
		sum += v
	}
	return sum
}

// keyedWrites only touch entries addressed by the loop variable.
func keyedWrites(m map[uint64]int) map[uint64]int {
	out := make(map[uint64]int, len(m))
	for k, v := range m { //prosperlint:ignore maprange fixture: keyed writes only
		out[k] = v * 2
	}
	for k := range out { //prosperlint:ignore maprange fixture: keyed deletes only
		if k == 0 {
			delete(out, k)
		}
	}
	return out
}

// schedules leaks iteration order through a side-effecting call.
func schedules(s *sched, m map[uint64]bool) {
	for addr := range m { // want:maprange "iteration order is random"
		s.Schedule(addr)
	}
}

// lastWriterWins keeps whichever key the runtime visited last.
func lastWriterWins(m map[string]int) string {
	var last string
	for k := range m { // want:maprange "iteration order is random"
		last = k
	}
	return last
}

// search returns constants only: any visiting order gives the answer.
func search(m map[string]int, want int) bool {
	for _, v := range m { //prosperlint:ignore maprange fixture: returns constants only
		if v == want {
			return true
		}
	}
	return false
}

// pick returns whichever key comes out first.
func pick(m map[string]int) string {
	for k := range m { // want:maprange "iteration order is random"
		return k
	}
	return ""
}

// bodyDirective: a directive inside the body does not reach the `for`
// line, where the finding is reported.
func bodyDirective(s *sched, m map[uint64]bool) {
	for addr := range m { // want:maprange "iteration order is random"
		//prosperlint:ignore maprange fixture: too late, the finding is on the for line
		s.Schedule(addr)
	}
}

// pageSet is a named map type: its underlying type is still a map.
type pageSet map[uint64]bool

func count(ps pageSet) int {
	n := 0
	for range ps { // want:maprange "iteration order is random"
		n++
	}
	return n
}

// sliceRange is not a map range: collecting without sorting is fine.
func sliceRange(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}

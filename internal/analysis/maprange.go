package analysis

import (
	"go/ast"
	"go/types"
)

// MapRange flags every `range` over a map in sim-deterministic
// packages. Go randomizes map iteration order, so a loop whose body
// issues timed accesses, schedules events or picks a winner by visiting
// order makes a run irreproducible: the bug class behind SSP's
// consolidateTick nondeterminism.
//
// The pass does not try to prove a loop body order-independent. The
// tree holds a handful of map ranges, so each one carries a reasoned
// //prosperlint:ignore maprange directive on its `for` line instead
// ("keys sorted before use", "keyed writes only", ...), and a new one
// has to say why it is safe before it lands.
type MapRange struct{}

// NewMapRange returns the pass.
func NewMapRange() *MapRange { return &MapRange{} }

// Name implements Pass.
func (*MapRange) Name() string { return "maprange" }

// Doc implements Pass.
func (*MapRange) Doc() string {
	return "every range over a map in sim-deterministic packages"
}

// Run implements Pass.
func (m *MapRange) Run(pkg *Package, r *Reporter) {
	if !isDeterministicPkg(pkg.Path) {
		return
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok {
				if t := pkg.Info.TypeOf(rs.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						r.Report("maprange", rs.Pos(),
							"map iteration order is random: sort the keys first, or suppress with a reason why order cannot leak")
					}
				}
			}
			return true
		})
	}
}

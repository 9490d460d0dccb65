package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Concurrency flags goroutine spawns, channel machinery, and sync/
// sync.atomic primitives outside the approved host-side packages. Each
// simulation run is single-threaded by contract — parallelism lives
// only in the runner's worker pool (one private machine per run) — so
// concurrency inside sim code either races on shared sim state or, at
// best, introduces scheduler-dependent ordering.
type Concurrency struct{}

// NewConcurrency returns the pass.
func NewConcurrency() *Concurrency { return &Concurrency{} }

// Name implements Pass.
func (*Concurrency) Name() string { return "concurrency" }

// Doc implements Pass.
func (*Concurrency) Doc() string {
	return "goroutines, channels, and sync primitives outside approved host-side code"
}

// concurrencyAllowed own cross-run machinery by design.
var concurrencyAllowed = []string{
	"internal/runner",    // the worker pool itself
	"internal/stats",     // RunLog's mutex (shared progress writer)
	"internal/telemetry", // Trace lane allocation across parallel runs
}

// Run implements Pass.
func (c *Concurrency) Run(pkg *Package, r *Reporter) {
	for _, allowed := range concurrencyAllowed {
		if pkgPathSuffix(pkg.Path, allowed) {
			return
		}
	}
	info := pkg.Info
	isChan := func(e ast.Expr) bool {
		t := info.TypeOf(e)
		if t == nil {
			return false
		}
		_, ok := t.Underlying().(*types.Chan)
		return ok
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				r.Report("concurrency", n.Pos(), "goroutine spawn: sim code runs single-threaded per run")
			case *ast.SendStmt:
				r.Report("concurrency", n.Pos(), "channel send in sim code")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					r.Report("concurrency", n.Pos(), "channel receive in sim code")
				}
			case *ast.SelectStmt:
				r.Report("concurrency", n.Pos(), "select statement in sim code")
			case *ast.RangeStmt:
				if isChan(n.X) {
					r.Report("concurrency", n.Pos(), "range over a channel in sim code")
				}
			case *ast.ChanType:
				r.Report("concurrency", n.Pos(), "channel type in sim code")
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" {
					if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
						r.Report("concurrency", n.Pos(), "close of a channel in sim code")
					}
				}
			case *ast.SelectorExpr:
				switch importedPkgOf(info, n.X) {
				case "sync", "sync/atomic":
					r.Report("concurrency", n.Pos(), fmt.Sprintf(
						"use of %s.%s: sim code needs no locking (single-threaded per run)",
						importedPkgOf(info, n.X), n.Sel.Name))
				}
			}
			return true
		})
	}
}

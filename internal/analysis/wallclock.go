package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// Wallclock flags host time sources and the global math/rand source.
// Simulated time is sim.Time advanced by the Engine, and every
// simulated component owns a seeded sim.Rand: reading the host clock or
// the process-global RNG from sim code makes runs irreproducible.
//
// The pass scans every package except the approved host-side timing
// owners (internal/runner's executor and internal/stats' RunLog). Host
// tools like cmd/prosper-experiments legitimately measure wall time, but
// they must say so with a //prosperlint:ignore directive: the sim/host
// time boundary is documented, never silent.
type Wallclock struct{}

// NewWallclock returns the pass.
func NewWallclock() *Wallclock { return &Wallclock{} }

// Name implements Pass.
func (*Wallclock) Name() string { return "wallclock" }

// Doc implements Pass.
func (*Wallclock) Doc() string {
	return "host wall-clock reads and global math/rand outside approved host-side code"
}

// wallclockAllowed are the packages whose whole job is host-side
// timing; everything else needs a per-site directive.
var wallclockAllowed = []string{
	"internal/runner",   // executor wall-time per run (host metric)
	"internal/stats",    // RunLog progress timestamps (host metric)
	"internal/hostprof", // owns the monotonic clock for host profiling (sim.Profile's injected clock)
}

// bannedTime are the time-package functions that read or schedule by
// the host clock. Duration arithmetic and constants stay legal.
var bannedTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// seededRandCtors construct explicitly seeded sources and are therefore
// fine anywhere; every other math/rand function uses the global source.
var seededRandCtors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// Run implements Pass.
func (w *Wallclock) Run(pkg *Package, r *Reporter) {
	for _, allowed := range wallclockAllowed {
		if pkgPathSuffix(pkg.Path, allowed) {
			return
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch importedPkgOf(pkg.Info, sel.X) {
			case "time":
				if bannedTime[sel.Sel.Name] {
					r.Report("wallclock", sel.Pos(), fmt.Sprintf(
						"time.%s reads the host clock: sim code must use sim.Time/Engine cycles (host-side timing needs an ignore directive)",
						sel.Sel.Name))
				}
			case "math/rand", "math/rand/v2":
				if _, isFunc := pkg.Info.Uses[sel.Sel].(*types.Func); isFunc && !seededRandCtors[sel.Sel.Name] {
					r.Report("wallclock", sel.Pos(), fmt.Sprintf(
						"rand.%s uses the process-global random source: use a seeded sim.Rand or rand.New(rand.NewSource(seed))",
						sel.Sel.Name))
				}
			}
			return true
		})
	}
}

package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Ownership is the machine-checked shared-state ownership map a
// sharded event wheel needs before it can split the machine across
// threads (the deterministic parallel engine on ROADMAP.md): every write
// site in sim-deterministic code is attributed to the component domain
// that owns the written state (domainOf: the package after internal/,
// which coincides with the sim.Component names), and a write that
// crosses domains must be on the documented boundary list below or it is
// a finding.
//
// The pass reads each function's own write sites and never follows a
// call, so it runs package by package. A parallel engine would extend the
// boundary list with its vetted cross-shard channels; until then the
// list is exactly the coupling the current single-threaded machine is
// known to have.
type Ownership struct{}

// NewOwnership returns the pass.
func NewOwnership() *Ownership { return &Ownership{} }

// Name implements Pass.
func (*Ownership) Name() string { return "ownership" }

// Doc implements Pass.
func (*Ownership) Doc() string {
	return "cross-component writes to shared machine state outside the documented boundary list"
}

// ownershipBoundary is one sanctioned cross-domain write: writer-domain
// code may write owner-domain state matching State ("Type.Field",
// "var Name", or "*" for the whole domain pair). Every entry needs a
// reason; the table is documentation as much as configuration.
type ownershipBoundary struct {
	Writer string
	Owner  string
	State  string
	Reason string
}

// ownershipBoundaries is the documented boundary list. Keep it sorted
// by (Writer, Owner, State); DESIGN.md §16 explains each coupling.
var ownershipBoundaries = []ownershipBoundary{
	// internal/machine is the documented multi-component package: it
	// assembles cores, caches, TLBs, and devices, and its per-access
	// plumbing legitimately owns vm-layer bookkeeping at access issue
	// time (sim.Component tags machine's call sites by role for the
	// same reason).
	{"machine", "vm", "*", "machine implements the address-translation path: TLB fills and page-table walk state are written at access issue time"},

	// The kernel is the OS model: it owns process lifecycle across every
	// component (context switches poke core state, checkpoints drive
	// persistence mechanisms, faults update address spaces).
	{"kernel", "machine", "*", "the kernel schedules threads onto cores and drives checkpoint quiesce/resume on the machine"},
	{"kernel", "vm", "*", "the kernel's fault handler and process setup own address-space layout"},
	{"kernel", "prosper", "*", "checkpoint epochs reset the prosper tracker's per-epoch state"},
	{"kernel", "persist", "*", "the kernel sequences persistence mechanisms through checkpoint phases"},
	{"kernel", "workload", "*", "the kernel steps workload threads and consumes their operation streams"},

	// Persistence mechanisms replay stores into the memory image and
	// drive the dirty tracker during checkpoint commit.
	{"persist", "mem", "*", "mechanisms persist pages/lines into the NVM domain at commit time"},
	{"persist", "prosper", "*", "mechanisms flush and clear the prosper tracker during commit"},
	{"persist", "vm", "PTE.Flags", "the dirtybit mechanism's checkpoint scan clears hardware dirty bits — the paper's PTE-based tracking interface"},

	// The tracer tap is machine's documented observation interface:
	// Core.Tracer exists to be installed/removed by the trace recorder.
	{"trace", "machine", "Core.Tracer", "Recorder.Attach installs the per-access tap on a core; detach writes nil"},

	// The crash harness and experiment drivers are sim-deterministic
	// orchestration: they construct, perturb, and inspect whole machines
	// by design.
	{"crash", "*", "*", "the crash harness perturbs and inspects machine state to model power failure"},
	{"experiments", "*", "*", "experiment plans assemble and configure whole machines"},
}

// boundaryAllowed reports whether a writer-domain write to owner-domain
// state is on the boundary list.
func boundaryAllowed(writer, owner, state string) bool {
	for _, b := range ownershipBoundaries {
		if b.Writer != writer {
			continue
		}
		if b.Owner != "*" && b.Owner != owner {
			continue
		}
		if b.State == "*" || b.State == state {
			return true
		}
	}
	return false
}

// Run implements Pass: flag cross-domain writes from sim-deterministic
// code that the boundary list does not sanction.
func (*Ownership) Run(pkg *Package, r *Reporter) {
	if !isDeterministicPkg(pkg.Path) {
		return
	}
	writer := domainOf(pkg.Path)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			for _, w := range writeSites(pkg.Info, fd.Body) {
				if w.Owner == writer || boundaryAllowed(writer, w.Owner, w.State) {
					continue
				}
				r.Report("ownership", w.Pos, fmt.Sprintf(
					"%s code writes %s-owned state %s: cross-component write not on the documented boundary list",
					writer, w.Owner, w.State))
			}
		}
	}
}

// writeSite is one write to shared state: a package-level variable or a
// field of a named struct type.
type writeSite struct {
	Pos   token.Pos
	Owner string // component domain owning the written state
	State string // "Type.Field" or "var Name"
}

// domainOf maps an import path to its component ownership domain: the
// path segment after the last "internal/" ("prosper/internal/cache" ->
// "cache"), or the last path segment otherwise. For the simulator's
// packages this coincides with the sim.Component names (machine being
// the documented multi-component package).
func domainOf(path string) string {
	if i := strings.LastIndex(path, "internal/"); i >= 0 {
		rest := path[i+len("internal/"):]
		if j := strings.Index(rest, "/"); j >= 0 {
			rest = rest[:j]
		}
		return rest
	}
	if j := strings.LastIndex(path, "/"); j >= 0 {
		return path[j+1:]
	}
	return path
}

// writeSites returns every shared-state write in a function body,
// closures included: assignments (not definitions) and ++/-- whose
// target is a package-level variable or a field of a named struct type.
func writeSites(info *types.Info, body *ast.BlockStmt) []writeSite {
	var out []writeSite
	record := func(pos token.Pos, lhs ast.Expr) {
		lhs = ast.Unparen(lhs)
		// Writing through an index expression mutates the indexed
		// container; attribute the write to the container itself.
		if ix, ok := lhs.(*ast.IndexExpr); ok {
			lhs = ast.Unparen(ix.X)
		}
		switch l := lhs.(type) {
		case *ast.Ident:
			v, ok := info.ObjectOf(l).(*types.Var)
			if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
				return
			}
			out = append(out, writeSite{Pos: pos, Owner: domainOf(v.Pkg().Path()), State: "var " + v.Name()})
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[l]; ok && sel.Kind() == types.FieldVal {
				field, _ := sel.Obj().(*types.Var)
				if field == nil || field.Pkg() == nil {
					return
				}
				// A field write through a value-typed local (op.Kind = ...
				// where op is a plain struct variable) mutates the local
				// copy, not shared state.
				if base, ok := ast.Unparen(l.X).(*ast.Ident); ok {
					if v, ok := info.ObjectOf(base).(*types.Var); ok && !v.IsField() &&
						v.Pkg() != nil && v.Parent() != v.Pkg().Scope() {
						if _, isPtr := v.Type().Underlying().(*types.Pointer); !isPtr {
							return
						}
					}
				}
				recv := sel.Recv()
				if ptr, ok := recv.(*types.Pointer); ok {
					recv = ptr.Elem()
				}
				typeName := "?"
				if named, ok := recv.(*types.Named); ok {
					typeName = named.Obj().Name()
				}
				out = append(out, writeSite{Pos: pos, Owner: domainOf(field.Pkg().Path()), State: typeName + "." + field.Name()})
				return
			}
			// Qualified package-level variable: otherpkg.Var = x.
			if v, ok := info.Uses[l.Sel].(*types.Var); ok &&
				v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				out = append(out, writeSite{Pos: pos, Owner: domainOf(v.Pkg().Path()), State: "var " + v.Name()})
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok != token.DEFINE {
				for _, lhs := range s.Lhs {
					record(lhs.Pos(), lhs)
				}
			}
		case *ast.IncDecStmt:
			record(s.X.Pos(), s.X)
		}
		return true
	})
	return out
}

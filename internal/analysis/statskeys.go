package analysis

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strings"

	"go/ast"
)

// StatsKeys enforces metric-name hygiene at every counter/histogram
// registration site:
//
//  1. Constant keys must be lowercase dotted identifiers
//     (segment[.segment...], segments matching [a-z][a-z0-9_]*), the
//     convention DumpStats sorts and renders.
//  2. An *unprefixed* key (no dot) must not be registered from more
//     than one package. Unprefixed keys from different owners collide
//     when dumped without a section prefix — exactly how the
//     per-core TLB counters ("tlb_hits") once aliased each other until
//     they were renamed to "coreN.tlb.hits".
//
// Dynamically-built names (fmt.Sprintf) are out of scope: the pass
// checks what it can prove, the convention covers the rest.
type StatsKeys struct {
	// sites: unprefixed key -> registering package -> positions.
	sites map[string]map[string][]token.Pos
}

// NewStatsKeys returns the pass.
func NewStatsKeys() *StatsKeys {
	return &StatsKeys{sites: make(map[string]map[string][]token.Pos)}
}

// Name implements Pass.
func (*StatsKeys) Name() string { return "statskeys" }

// Doc implements Pass.
func (*StatsKeys) Doc() string {
	return "metric keys must be lowercase dotted identifiers; unprefixed keys must have one owner"
}

// keyRe is the lowercase dotted identifier shape.
var keyRe = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$`)

// metricAPIs maps (defining package suffix, type name) to the methods
// whose first argument is a metric key, split by whether the call
// registers the key (creating it on first use) or merely reads it.
type metricAPI struct {
	pkgSuffix string
	typeName  string
	register  map[string]bool
	read      map[string]bool
}

var metricAPIs = []metricAPI{
	{
		pkgSuffix: "internal/stats", typeName: "Counters",
		register: map[string]bool{"Handle": true, "Lazy": true, "Add": true, "Inc": true},
		read:     map[string]bool{"Get": true},
	},
	{
		pkgSuffix: "internal/stats", typeName: "Histograms",
		register: map[string]bool{"New": true},
		read:     map[string]bool{"Get": true},
	},
}

// Run implements Pass.
func (s *StatsKeys) Run(pkg *Package, r *Reporter) {
	info := pkg.Info
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recvPkg, recvType := namedRecv(info, sel)
			if recvPkg == "" {
				return true
			}
			for _, api := range metricAPIs {
				if !pkgPathSuffix(recvPkg, api.pkgSuffix) || recvType != api.typeName {
					continue
				}
				method := sel.Sel.Name
				isReg := api.register[method]
				if !isReg && !api.read[method] {
					return true
				}
				key, isConst := constString(info, call.Args[0])
				if !isConst {
					return true
				}
				if !keyRe.MatchString(key) {
					r.Report("statskeys", call.Args[0].Pos(), fmt.Sprintf(
						"metric key %q is not a lowercase dotted identifier (want e.g. \"owner.metric_name\")", key))
					return true
				}
				if isReg && !strings.Contains(key, ".") {
					byPkg := s.sites[key]
					if byPkg == nil {
						byPkg = make(map[string][]token.Pos)
						s.sites[key] = byPkg
					}
					byPkg[pkg.Path] = append(byPkg[pkg.Path], call.Args[0].Pos())
				}
				return true
			}
			return true
		})
	}
}

// Finish implements Finisher: cross-package duplicate detection for
// unprefixed keys.
func (s *StatsKeys) Finish(r *Reporter) {
	keys := make([]string, 0, len(s.sites))
	for k := range s.sites {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		byPkg := s.sites[key]
		if len(byPkg) < 2 {
			continue
		}
		pkgs := make([]string, 0, len(byPkg))
		for p := range byPkg {
			pkgs = append(pkgs, p)
		}
		sort.Strings(pkgs)
		for _, p := range pkgs {
			for _, pos := range byPkg[p] {
				r.Report("statskeys", pos, fmt.Sprintf(
					"unprefixed metric key %q is registered by %d packages (%s): qualify it per owner (e.g. \"owner.%s\")",
					key, len(pkgs), strings.Join(pkgs, ", "), key))
			}
		}
	}
}

package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// isDeterministicPkg reports whether the import path belongs to the
// sim-deterministic set. Matching is by module-relative suffix so that
// test fixtures loaded under synthetic paths behave like the real
// packages they stand in for.
func isDeterministicPkg(path string) bool {
	for _, det := range DeterministicPackages {
		if path == det || strings.HasSuffix(path, "/"+det) {
			return true
		}
	}
	return false
}

// pkgPathSuffix reports whether path is, or ends with, the
// module-relative package path p (e.g. "internal/runner").
func pkgPathSuffix(path, p string) bool {
	return path == p || strings.HasSuffix(path, "/"+p)
}

// importedPkgOf resolves a selector base expression to the import path
// of the package it names, or "" if the base is not a package
// identifier (e.g. it is a variable).
func importedPkgOf(info *types.Info, x ast.Expr) string {
	id, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

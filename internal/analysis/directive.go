package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// DirectivePass is the reserved pass name under which malformed
// suppression directives are reported.
const DirectivePass = "directive"

// directivePrefix introduces a suppression directive. Like go:build
// and friends, it must be a line comment with no space after "//".
const directivePrefix = "//prosperlint:"

// Directive is one parsed //prosperlint: comment. One verb exists:
//
//	//prosperlint:ignore <pass>[,<pass>...] <reason>
//
// A directive that shares its line with code targets that line; a
// directive alone on its line targets the line directly below it (blank
// lines do not extend the reach). It suppresses findings of the named
// passes on its target line.
type Directive struct {
	Verb   string   // "ignore" for every well-formed directive
	Line   int      // line the comment sits on
	Col    int      // column of the comment
	Target int      // line it applies to
	Passes []string // pass names it applies to
	Reason string   // mandatory justification
	Err    string   // non-empty for a malformed directive
}

// matchesPass reports whether the directive suppresses the named pass.
// A directive with an unknown verb suppresses nothing.
func (d Directive) matchesPass(pass string) bool {
	if d.Verb != "ignore" {
		return false
	}
	for _, p := range d.Passes {
		if p == pass {
			return true
		}
	}
	return false
}

// ParseDirectives extracts every //prosperlint: directive from the
// file. src is the file's source, used to decide whether a directive is
// standalone (suppresses the next line) or trailing (suppresses its own
// line).
func ParseDirectives(fset *token.FileSet, f *ast.File, src []byte) []Directive {
	var out []Directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			d := Directive{Line: pos.Line, Col: pos.Column}
			d.Target = d.Line
			if standalone(src, pos.Offset) {
				d.Target = d.Line + 1
			}
			rest := strings.TrimPrefix(c.Text, directivePrefix)
			verb, args, _ := strings.Cut(rest, " ")
			d.Verb = verb
			args = strings.TrimSpace(args)
			if verb != "ignore" {
				d.Err = "unknown prosperlint directive //prosperlint:" + verb + " (only \"ignore\" exists)"
				out = append(out, d)
				continue
			}
			passes, reason, _ := strings.Cut(args, " ")
			reason = strings.TrimSpace(reason)
			if passes == "" {
				d.Err = "ignore directive is missing a pass name: want //prosperlint:ignore <pass> <reason>"
				out = append(out, d)
				continue
			}
			for _, p := range strings.Split(passes, ",") {
				p = strings.TrimSpace(p)
				if p == "" {
					d.Err = "ignore directive has an empty pass name in its pass list"
					break
				}
				d.Passes = append(d.Passes, p)
			}
			if d.Err == "" && reason == "" {
				d.Err = "ignore directive is missing a reason: every suppression must say why the finding is safe"
			}
			if d.Err == "" {
				d.Reason = reason
			}
			out = append(out, d)
		}
	}
	return out
}

// standalone reports whether the comment starting at offset is the
// first non-whitespace content on its line.
func standalone(src []byte, offset int) bool {
	if offset > len(src) {
		return false
	}
	for i := offset - 1; i >= 0; i-- {
		switch src[i] {
		case '\n':
			return true
		case ' ', '\t', '\r':
			continue
		default:
			return false
		}
	}
	return true // first line of the file
}

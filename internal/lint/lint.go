package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"slices"
	"sort"
	"strings"
)

// Analyzer is one invariant checker. Implementations are stateless across
// passes: Run is called once per package variant with everything it needs
// on the pass.
type Analyzer interface {
	// Name is the short identifier findings and //lint:ignore directives
	// use (e.g. "ctxflow").
	Name() string
	// Doc is a one-line description of the invariant enforced.
	Doc() string
	// Run inspects one package variant and reports findings via
	// pass.Reportf.
	Run(pass *Pass)
}

// ModuleAnalyzer is an Analyzer whose rule spans packages. Program.Run
// calls its Run once per load, on a pass whose package fields are unset,
// instead of once per unit, and only when the load covers the whole
// module; otherwise the analyzer is skipped and its directives are not
// checked for use.
type ModuleAnalyzer interface {
	Analyzer
	ModuleWide()
}

// Pass hands an analyzer one type-checked package variant: its files, type
// info, and the module import graph.
type Pass struct {
	Pkg   *Package
	XTest bool
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	Graph *Graph

	prog     *Program
	analyzer Analyzer
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.analyzer.Name(),
		File:     p.Graph.relFile(position.Filename),
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether f is a _test.go file of this unit.
func (p *Pass) IsTestFile(f *ast.File) bool {
	u := p.unit()
	return u != nil && u.testFiles[f]
}

func (p *Pass) unit() *Unit {
	for _, u := range p.prog.Units {
		if u.Pkg == p.Pkg && u.XTest == p.XTest {
			return u
		}
	}
	return nil
}

// Rel is Graph.Rel for this pass's module.
func (p *Pass) Rel(importPath string) (string, bool) { return p.Graph.Rel(importPath) }

// PkgRel is the module-relative path of the package under analysis.
func (p *Pass) PkgRel() string {
	rel, _ := p.Graph.Rel(p.Pkg.ImportPath)
	return rel
}

// LookupObject resolves an exported object declared in another module
// package (by module-relative path), or nil.
func (p *Pass) LookupObject(relPath, name string) types.Object {
	return p.prog.LookupObject(relPath, name)
}

// Finding is one rendered analyzer hit.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the canonical `file:line: [name] message` form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Analyzer, f.Message)
}

// WriteJSON renders findings as a JSON array (never null).
func WriteJSON(w io.Writer, findings []Finding) error {
	if findings == nil {
		findings = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(findings)
}

// MetaAnalyzer is the reserved analyzer name under which the framework
// itself reports malformed or unused //lint:ignore directives.
const MetaAnalyzer = "lint"

// directive is one parsed //lint:ignore comment.
type directive struct {
	file   string
	line   int
	names  map[string]bool
	reason string
	pos    token.Position
	used   bool
}

// Run executes the analyzers over every loaded unit, applies
// //lint:ignore suppression, and returns the surviving findings sorted by
// position. Malformed and unused directives are themselves findings under
// the "lint" meta analyzer, so a stale suppression turns the gate red just
// like a regression would.
func (p *Program) Run(analyzers []Analyzer) []Finding {
	var raw []Finding
	var perUnit []Analyzer
	skipped := map[string]bool{}
	for _, a := range analyzers {
		switch _, ok := a.(ModuleAnalyzer); {
		case !ok:
			perUnit = append(perUnit, a)
		case p.whole:
			a.Run(&Pass{Fset: p.Fset, Graph: p.Graph, prog: p, analyzer: a, findings: &raw})
		default:
			skipped[a.Name()] = true
		}
	}
	for _, u := range p.Units {
		for _, a := range perUnit {
			pass := &Pass{
				Pkg: u.Pkg, XTest: u.XTest, Fset: p.Fset, Files: u.Files,
				Types: u.Types, Info: u.Info, Graph: p.Graph,
				prog: p, analyzer: a, findings: &raw,
			}
			a.Run(pass)
		}
	}

	directives, meta := p.collectDirectives()
	var out []Finding
	for _, f := range raw {
		if d := matchDirective(directives, f); d != nil {
			d.used = true
			continue
		}
		out = append(out, f)
	}
	out = append(out, meta...)
	for _, ds := range directives {
		for _, d := range ds {
			if !d.used {
				names := make([]string, 0, len(d.names))
				for n := range d.names {
					names = append(names, n)
				}
				if slices.ContainsFunc(names, func(n string) bool { return skipped[n] }) {
					continue
				}
				sort.Strings(names)
				out = append(out, Finding{
					Analyzer: MetaAnalyzer,
					File:     d.file, Line: d.line, Col: d.pos.Column,
					Message: fmt.Sprintf("unused //lint:ignore directive for %s: it suppresses nothing, remove it", strings.Join(names, ",")),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// collectDirectives scans every loaded file once for //lint:ignore
// comments. The returned map is keyed by rendered file path; malformed
// directives come back as meta findings.
func (p *Program) collectDirectives() (map[string][]*directive, []Finding) {
	directives := map[string][]*directive{}
	var meta []Finding
	seenFile := map[string]bool{}
	for _, u := range p.Units {
		for _, f := range u.Files {
			position := p.Fset.Position(f.Pos())
			if seenFile[position.Filename] {
				continue
			}
			seenFile[position.Filename] = true
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//")
					if !ok {
						continue // /* */ comments don't carry directives
					}
					text = strings.TrimSpace(text)
					rest, ok := strings.CutPrefix(text, "lint:ignore")
					if !ok {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					file := p.Graph.relFile(pos.Filename)
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						meta = append(meta, Finding{
							Analyzer: MetaAnalyzer,
							File:     file, Line: pos.Line, Col: pos.Column,
							Message: "malformed //lint:ignore directive: want `//lint:ignore <analyzer>[,<analyzer>] <reason>`",
						})
						continue
					}
					names := map[string]bool{}
					for _, n := range strings.Split(fields[0], ",") {
						if n != "" {
							names[n] = true
						}
					}
					directives[file] = append(directives[file], &directive{
						file: file, line: pos.Line, names: names,
						reason: strings.Join(fields[1:], " "), pos: pos,
					})
				}
			}
		}
	}
	return directives, meta
}

// matchDirective finds a directive covering the finding: same line
// (trailing comment) or the line above (standalone comment).
func matchDirective(directives map[string][]*directive, f Finding) *directive {
	for _, d := range directives[f.File] {
		if (d.line == f.Line || d.line == f.Line-1) && d.names[f.Analyzer] {
			return d
		}
	}
	return nil
}

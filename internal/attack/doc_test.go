package attack

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"

	"drams/internal/core"
)

// architecture is the document that defines the attack IDs and alert types.
const architecture = "../../docs/ARCHITECTURE.md"

// TestAttackIDsAndAlertTypesDocumented fails when an attack the catalogue
// runs has no row in one of ARCHITECTURE §9's tables, when that row does
// not name the alerts the scenario expects, or when an on-chain alert type
// is not named in the document, so a new one cannot land undescribed.
func TestAttackIDsAndAlertTypesDocumented(t *testing.T) {
	raw, err := os.ReadFile(architecture)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	_, sec9, _ := strings.Cut(doc, "\n## 9. ")
	sec9, _, _ = strings.Cut(sec9, "\n## 10. ")
	rows := map[string]string{}
	for _, line := range strings.Split(sec9, "\n") {
		if id, _, ok := strings.Cut(strings.TrimPrefix(line, "| "), " |"); ok && strings.HasPrefix(line, "| ") {
			rows[id] = line
		}
	}
	for _, sc := range Catalogue() {
		row, ok := rows[sc.ID]
		if !ok {
			t.Errorf("%s (%s) has no row in %s", sc.ID, sc.Name, architecture)
			continue
		}
		for _, a := range sc.Expected {
			if !strings.Contains(row, "`"+string(a)+"`") {
				t.Errorf("%s's row does not name %s: %s", sc.ID, a, row)
			}
		}
	}
	for _, a := range alertTypeConstants(t) {
		if a != core.AlertMatched && !strings.Contains(doc, "`"+string(a)+"`") {
			t.Errorf("alert type %s is not named in %s", a, architecture)
		}
	}
}

// alertTypeConstants returns the value of every core.AlertType constant
// declared in the core package's source.
func alertTypeConstants(t *testing.T) []core.AlertType {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), "../core", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []core.AlertType
	for _, f := range pkgs["core"].Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				if typ, ok := vs.Type.(*ast.Ident); !ok || typ.Name != "AlertType" {
					continue
				}
				for _, v := range vs.Values {
					if lit, ok := v.(*ast.BasicLit); ok {
						s, err := strconv.Unquote(lit.Value)
						if err != nil {
							t.Fatal(err)
						}
						out = append(out, core.AlertType(s))
					}
				}
			}
		}
	}
	if len(out) < len(core.AllAlertTypes()) {
		t.Fatalf("found %d AlertType constants, fewer than AllAlertTypes' %d", len(out), len(core.AllAlertTypes()))
	}
	return out
}

package drams_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// publicSurface is the package's whole exported surface. A PR that grows it
// edits this list in its own diff.
var publicSurface = []string{
	"Admin",
	"Admin.History",
	"Admin.PolicyDigest",
	"Admin.PolicySet",
	"Admin.PolicyVersion",
	"Admin.Rollback",
	"Admin.Tenant",
	"Admin.UpdatePolicy",
	"Alert",
	"AlertFilter",
	"AlertMatched",
	"AlertPolicyActivated",
	"AlertPolicyRejected",
	"AlertType",
	"ChainMaterial",
	"ChainParams",
	"Client",
	"Client.Decide",
	"Client.DecideAsync",
	"Client.DecideBatch",
	"Client.NewRequest",
	"Client.Tenant",
	"Deployment",
	"Deployment.Admin",
	"Deployment.Agents",
	"Deployment.Alerts",
	"Deployment.Analyser",
	"Deployment.Client",
	"Deployment.Close",
	"Deployment.CompromisePDP",
	"Deployment.Gatherer",
	"Deployment.Health",
	"Deployment.InfraNode",
	"Deployment.LIs",
	"Deployment.MetricsHandler",
	"Deployment.Monitor",
	"Deployment.Net",
	"Deployment.NewRequest",
	"Deployment.NewRequestID",
	"Deployment.Node",
	"Deployment.OnPolicyEvent",
	"Deployment.PDP",
	"Deployment.PEP",
	"Deployment.PolicyStats",
	"Deployment.PublishPolicy",
	"Deployment.Registry",
	"Deployment.TamperPEP",
	"Deployment.Topology",
	"Deployment.Trace",
	"Deployment.Transport",
	"Deployment.WaitForAlert",
	"Deployment.WaitForMatched",
	"Enforcement",
	"ErrMonitoringDisabled",
	"Future",
	"Future.Done",
	"Future.RequestID",
	"Future.Wait",
	"NewChainMaterial",
	"Open",
	"OpenMember",
	"Option",
	"PolicyActivation",
	"PolicyEvent",
	"PolicyStats",
	"Tamper",
	"TraceSpan",
	"UpdateOptions",
	"WithDataDir",
	"WithDifficulty",
	"WithEmptyBlockInterval",
	"WithMineAll",
	"WithMonitoring",
	"WithNetwork",
	"WithSeed",
	"WithTimeoutBlocks",
	"WithTopology",
	"WithTransport",
}

// TestPublicSurface pins the exported names of the package's non-test files:
// top-level funcs, types, vars and consts, methods as Type.Method, and the
// exported fields of Deployment as Deployment.Field.
func TestPublicSurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if !decl.Name.IsExported() {
					continue
				}
				if decl.Recv == nil {
					got = append(got, decl.Name.Name)
					continue
				}
				recv := decl.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				got = append(got, recv.(*ast.Ident).Name+"."+decl.Name.Name)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if !spec.Name.IsExported() {
							continue
						}
						got = append(got, spec.Name.Name)
						if st, ok := spec.Type.(*ast.StructType); ok && spec.Name.Name == "Deployment" {
							for _, field := range st.Fields.List {
								for _, id := range field.Names {
									if id.IsExported() {
										got = append(got, "Deployment."+id.Name)
									}
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							if id.IsExported() {
								got = append(got, id.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, publicSurface) {
		t.Fatalf("public surface changed; update publicSurface if on purpose:\n\t%q", got)
	}
}

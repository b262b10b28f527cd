package lint

import "fmt"

// NetsimImport enforces the PR 3 transport-abstraction boundary: after the
// pluggable transport layer landed, components compile against
// internal/transport interfaces only, and the in-process simulator is
// reachable solely from _test.go files, the simulator itself, and the
// designated wiring layers that assemble deployments (root package, cmd/,
// examples/, and the bench/attack/load harnesses).
type NetsimImport struct {
	// Target is the module-relative path of the simulator package.
	Target string
	// Allowed are module-relative package patterns permitted to import it
	// from non-test files ("" is the module root, "cmd/..." a subtree).
	Allowed []string
}

// NewNetsimImport returns the analyzer with the repo's designated wiring
// allowlist.
func NewNetsimImport() *NetsimImport {
	return &NetsimImport{
		Target: "internal/netsim",
		Allowed: []string{
			"",        // root wiring layer (drams.Open assembles netsim fleets)
			"cmd/...", // binaries choose their transport
			"examples/...",
			"internal/experiment", // bench harness builds simulated fleets
			"internal/attack",     // chaos campaigns run against netsim deployments
			"internal/loadgen",    // the netsim load target
		},
	}
}

func (a *NetsimImport) Name() string { return "netsimimport" }

func (a *NetsimImport) Doc() string {
	return "no internal/netsim import outside _test.go files, the simulator, and designated wiring packages (PR 3)"
}

func (a *NetsimImport) Run(p *Pass) {
	rel := p.PkgRel()
	if rel == a.Target || matchAnyPath(rel, a.Allowed) {
		return
	}
	target := p.Graph.Module + "/" + a.Target
	for _, f := range p.Files {
		if p.IsTestFile(f) {
			continue
		}
		for _, spec := range f.Imports {
			if importPathOf(spec) == target {
				p.Reportf(spec.Pos(), "package %s imports %s: components must compile against internal/transport interfaces; only tests and designated wiring may use the simulator",
					fmt.Sprintf("%q", p.Pkg.ImportPath), target)
			}
		}
	}
}

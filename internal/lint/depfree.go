package lint

// DepFree enforces the PR 9 layering contract in both directions. The
// dep-free stratum (metrics, crypto, merkle, trace, obs) must stay
// importable from anywhere without dragging in components, so its members
// import only the stdlib and each other. And components must never import
// internal/obs back: observability wiring happens in the root layer, where
// a member is assembled, by registering closures over Stats() accessors, so
// no component shares an import (or a lock) with the scrape path.
type DepFree struct {
	// Stratum lists the module-relative dep-free packages. Each may import
	// only the stdlib and other stratum members from non-test files.
	Stratum []string
	// Restricted is the stratum package components must not import back.
	Restricted string
	// RestrictedAllowed are package patterns that may import Restricted
	// from non-test files (the wiring layers).
	RestrictedAllowed []string
}

// NewDepFree returns the analyzer with the repo's dep-free stratum.
func NewDepFree() *DepFree {
	return &DepFree{
		Stratum: []string{
			"internal/metrics",
			"internal/crypto",
			"internal/merkle",
			"internal/trace",
			"internal/obs",
		},
		Restricted: "internal/obs",
		RestrictedAllowed: []string{
			"",        // root wiring layer registers collectors and builds the /metrics handler
			"cmd/...", // binaries may serve their own exposition; drams-node mounts the member's handler and a tier-1 test keeps obs out of it
		},
	}
}

func (a *DepFree) Name() string { return "depfree" }

func (a *DepFree) Doc() string {
	return "the dep-free stratum imports only stdlib+stratum, and only wiring layers import internal/obs (PR 9)"
}

func (a *DepFree) Run(p *Pass) {
	rel := p.PkgRel()
	inStratum := matchAnyPath(rel, a.Stratum)
	mayImportRestricted := rel == a.Restricted || matchAnyPath(rel, a.RestrictedAllowed)
	for _, f := range p.Files {
		if p.IsTestFile(f) {
			continue
		}
		for _, spec := range f.Imports {
			ip := importPathOf(spec)
			ipRel, inMod := p.Rel(ip)
			if inStratum && !p.Graph.IsStdlib(ip) && !(inMod && matchAnyPath(ipRel, a.Stratum)) {
				p.Reportf(spec.Pos(), "dep-free package %s imports %s: the stratum may import only the stdlib and other stratum packages", rel, ip)
				continue
			}
			if inMod && ipRel == a.Restricted && !mayImportRestricted {
				p.Reportf(spec.Pos(), "package %s imports %s: components never import obs — wiring layers register closures over Stats() accessors instead", rel, ip)
			}
		}
	}
}

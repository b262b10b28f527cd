package lint

// DefaultAnalyzers is the drams-lint suite: one analyzer per architectural
// invariant a past PR established by fixing a real bug. The table mapping
// each analyzer to its motivating PR lives in docs/ARCHITECTURE.md §13.
func DefaultAnalyzers() []Analyzer {
	return []Analyzer{
		NewNetsimImport(),
		NewDepFree(),
		NewCtxFlow(),
		NewLockHeld(),
		NewSeedPin(),
		NewErrCmp(),
		NewStatsSnap(),
		NewDeadCode(),
	}
}

package analysis

// All returns every project analyzer in a fixed, documented order —
// the order diagnostics and `mcslint -list` present them in.
func All() []*Analyzer {
	return []*Analyzer{
		CtxPoll,
		NoPanic,
		Determinism,
		ObsNames,
		ErrCheckLite,
		Grouped,
		FaultSite,
	}
}

// ByName resolves an analyzer by its Name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

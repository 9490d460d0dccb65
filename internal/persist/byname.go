package persist

// Names lists, in display order, every mechanism ByName resolves.
func Names() []string {
	return []string{"none", "prosper", "prosper-adaptive", "dirtybit", "writeprotect", "romulus", "ssp"}
}

// ByName returns a factory for the named mechanism in its default
// configuration; ok is false for a name outside Names. Every built
// mechanism's Name() is the name it was resolved from.
func ByName(name string) (f Factory, ok bool) {
	switch name {
	case "none":
		return NewNone(), true
	case "prosper":
		return NewProsper(ProsperConfig{}), true
	case "prosper-adaptive":
		return NewAdaptiveProsper(AdaptiveConfig{}), true
	case "dirtybit":
		return NewDirtybit(DirtybitConfig{}), true
	case "writeprotect":
		return NewWriteProtect(DirtybitConfig{}), true
	case "romulus":
		return NewRomulus(), true
	case "ssp":
		return NewSSP(SSPConfig{}), true
	}
	return nil, false
}

package lint

// AllRules returns the full rule set in a stable order.
func AllRules() []Rule {
	return []Rule{
		droppedError{},
		floatEq{},
		unwrappedError{},
		panicMessage{},
		obsAtomic{},
		ctxBackground{},
		wireTypes{},
		objstoreWrite{},
		pinRelease{},
		ctxFlow{},
		subUnregister{},
		astExhaustive{},
	}
}

// RuleByName resolves one rule; ok is false for unknown names.
func RuleByName(name string) (Rule, bool) {
	for _, r := range AllRules() {
		if r.Name() == name {
			return r, true
		}
	}
	return nil, false
}

// knownRuleNames is the set of names an ignore directive may legally
// reference: every registered rule plus the directive rule itself (so a
// deliberately unused `//lint:ignore lint-directive ...` does not recurse
// into nonsense) and "*".
func knownRuleNames() map[string]bool {
	known := map[string]bool{"*": true, directiveRule: true}
	for _, r := range AllRules() {
		known[r.Name()] = true
	}
	return known
}

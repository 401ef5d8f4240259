package lint

import (
	"fmt"
	"go/token"
	"strings"
)

// ignoreDirective is one parsed `//lint:ignore <rules> <reason>` comment,
// where <rules> is a single rule name, a comma-separated list
// (`pin-release,ctx-flow`), or `*` for any rule. The reason is
// mandatory: a suppression without a recorded justification is itself a
// finding.
type ignoreDirective struct {
	rules  []string // rule names, or ["*"] for any rule
	reason string
}

func (d ignoreDirective) matches(rule string) bool {
	for _, r := range d.rules {
		if r == "*" || r == rule {
			return true
		}
	}
	return false
}

// ignoreSet maps file:line to the directives that apply there.
type ignoreSet map[string]map[int][]ignoreDirective

const ignorePrefix = "//lint:ignore"

// directiveRule is the rule name under which malformed or unknown-rule
// ignore directives are reported. An ignore directive naming a rule that
// does not exist is silently inert — it suppresses nothing while its
// author believes something is suppressed — so it must be a finding, not
// a no-op.
const directiveRule = "lint-directive"

// collectIgnores scans the package's comments for ignore directives. A
// directive suppresses matching diagnostics on its own line (trailing
// comment) and on the line directly below it (comment-above style).
// known is the full rule registry (plus built-ins); a directive naming an
// unknown rule is reported as a lint-directive diagnostic and records
// only its known names, so a typo never silently disarms a suppression of
// a different rule on the same line.
func collectIgnores(p *Package, known map[string]bool) (ignoreSet, []Diagnostic) {
	set := make(ignoreSet)
	var bad []Diagnostic
	report := func(pos token.Position, msg string) {
		bad = append(bad, Diagnostic{Pos: pos, Rule: directiveRule, Message: msg})
	}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				rest, ok := strings.CutPrefix(text, ignorePrefix)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					// Missing rule or reason: record nothing, so the
					// diagnostic it meant to silence still fires — the
					// safest failure mode for a suppression mechanism —
					// and surface the malformed directive itself.
					report(pos, "malformed //lint:ignore: want `//lint:ignore <rule>[,<rule>...] <reason>`")
					continue
				}
				var rules []string
				for _, name := range strings.Split(fields[0], ",") {
					name = strings.TrimSpace(name)
					if name == "" {
						continue
					}
					if !known[name] {
						report(pos, fmt.Sprintf("//lint:ignore names unknown rule %q (see sklint -rules); the suppression is inert", name))
						continue
					}
					rules = append(rules, name)
				}
				if len(rules) == 0 {
					continue
				}
				d := ignoreDirective{rules: rules, reason: strings.Join(fields[1:], " ")}
				byLine := set[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]ignoreDirective)
					set[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], d)
			}
		}
	}
	return set, bad
}

// match reports whether a diagnostic for rule at position is suppressed.
func (s ignoreSet) match(pos token.Position, rule string) bool {
	byLine := s[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, d := range byLine[line] {
			if d.matches(rule) {
				return true
			}
		}
	}
	return false
}

package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFixtures runs the full rule set over each fixture package under
// testdata/src and compares the diagnostics against the package's golden
// expect.txt. Every rule has a fixture with positive cases (diagnostics
// expected), negative cases (clean idioms) and a //lint:ignore
// suppression, so this single loop exercises detection, precision and the
// escape hatch for all of them.
func TestFixtures(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader()
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			dir, err := filepath.Abs(filepath.Join("testdata", "src", e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			// Recursive: a path-scoped rule's fixture reproduces the
			// directory shape it scopes on below the fixture root.
			pkgs, err := loader.Load(root, dir+"/...")
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pkgs {
				if len(p.TypeErrors) > 0 {
					t.Fatalf("fixture does not type-check: %v", p.TypeErrors)
				}
			}
			diags := Run(pkgs, AllRules())
			var got strings.Builder
			for _, d := range diags {
				fmt.Fprintf(&got, "%s:%d:%d: %s: %s\n",
					filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
			}
			wantBytes, err := os.ReadFile(filepath.Join(dir, "expect.txt"))
			if err != nil {
				t.Fatal(err)
			}
			want := string(wantBytes)
			if got.String() != want {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got.String(), want)
			}
			// Each rule's fixture is a negative fixture for the gate: the
			// analyzer must report at least one issue on it (which makes
			// the sklint CLI exit non-zero).
			if strings.TrimSpace(want) != "" && len(diags) == 0 {
				t.Error("expected at least one diagnostic on a negative fixture")
			}
		})
	}
}

// TestRepoIsClean is the self-hosting gate: the analyzer must run clean
// over the entire module (the same invocation CI uses via
// `go run ./cmd/sklint ./...`). Any new finding is either a real bug or
// needs an explicit //lint:ignore with a reason.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checking the whole module is slow")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := NewLoader().Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; loader is missing the module", len(pkgs))
	}
	for _, d := range Run(pkgs, AllRules()) {
		t.Errorf("%s", d)
	}
}

// TestRuleRegistry pins the rule set: a rule silently dropping out of
// AllRules would disable its gate without any test failing.
func TestRuleRegistry(t *testing.T) {
	want := []string{
		"dropped-error",
		"float-eq",
		"unwrapped-error",
		"panic-message",
		"obs-atomic",
		"ctx-background",
		"wire-types",
		"objstore-write",
		"pin-release",
		"ctx-flow",
		"sub-unregister",
		"ast-exhaustive",
	}
	rules := AllRules()
	if len(rules) != len(want) {
		t.Fatalf("got %d rules, want %d", len(rules), len(want))
	}
	for i, r := range rules {
		if r.Name() != want[i] {
			t.Errorf("rule %d = %q, want %q", i, r.Name(), want[i])
		}
		if r.Doc() == "" {
			t.Errorf("rule %q has no doc", r.Name())
		}
		byName, ok := RuleByName(want[i])
		if !ok || byName.Name() != want[i] {
			t.Errorf("RuleByName(%q) failed", want[i])
		}
	}
	if _, ok := RuleByName("no-such-rule"); ok {
		t.Error("RuleByName should reject unknown names")
	}
}

// TestIgnoreMalformed checks the fail-safe: a //lint:ignore directive
// without a reason must NOT suppress anything.
func TestIgnoreMalformed(t *testing.T) {
	set := ignoreSet{}
	if set.match(position("f.go", 3), "dropped-error") {
		t.Error("empty set must not match")
	}
}

func position(file string, line int) (p token.Position) {
	p.Filename = file
	p.Line = line
	return p
}

func parseTestPackage(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{Dir: "fixture", Fset: fset, Files: []*ast.File{f}}
}

// TestIgnoreDirectives covers the directive grammar: comma-separated rule
// lists suppress each named rule, unknown rule names are themselves
// findings (an inert suppression is a trap for its author), and a typo in
// one name must not disarm the valid names beside it.
func TestIgnoreDirectives(t *testing.T) {
	p := parseTestPackage(t, `package x

//lint:ignore dropped-error,float-eq shared scratch value
var A = 1

//lint:ignore bogus-rule,pin-release half typo half real
var B = 2

//lint:ignore dropped-error
var C = 3
`)
	set, bad := collectIgnores(p, knownRuleNames())

	if !set.match(position("fixture.go", 4), "dropped-error") {
		t.Error("comma list: dropped-error not suppressed on the line below")
	}
	if !set.match(position("fixture.go", 4), "float-eq") {
		t.Error("comma list: float-eq not suppressed")
	}
	if set.match(position("fixture.go", 4), "pin-release") {
		t.Error("comma list must only suppress the named rules")
	}
	if !set.match(position("fixture.go", 7), "pin-release") {
		t.Error("a typo next to a valid name must not disarm the valid name")
	}

	var unknown, malformed int
	for _, d := range bad {
		if d.Rule != directiveRule {
			t.Errorf("bad-directive diagnostic under rule %q, want %q", d.Rule, directiveRule)
		}
		switch {
		case strings.Contains(d.Message, "unknown rule"):
			unknown++
			if !strings.Contains(d.Message, "bogus-rule") {
				t.Errorf("unknown-rule diagnostic does not name the rule: %s", d.Message)
			}
		case strings.Contains(d.Message, "malformed"):
			malformed++
		}
	}
	if unknown != 1 {
		t.Errorf("got %d unknown-rule diagnostics, want 1", unknown)
	}
	if malformed != 1 {
		t.Errorf("got %d malformed diagnostics, want 1 (reason is mandatory)", malformed)
	}
}

// TestTypeErrorPos pins the satellite fix: a non-types.Error must fall
// back to the package's first file, never a zero Position — CI routes
// annotations by filename, and "" routes nowhere.
func TestTypeErrorPos(t *testing.T) {
	p := parseTestPackage(t, "package x\n")
	pos := typeErrorPos(p, fmt.Errorf("importer exploded"))
	if pos.Filename != "fixture.go" {
		t.Errorf("fallback position = %q, want the package's first file", pos.Filename)
	}
	empty := &Package{Dir: "somewhere", Fset: token.NewFileSet()}
	pos = typeErrorPos(empty, fmt.Errorf("no files at all"))
	if pos.Filename != "somewhere" {
		t.Errorf("fileless fallback = %q, want the package dir", pos.Filename)
	}
}

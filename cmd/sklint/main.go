// Command sklint runs the repo-specific static analyzer over the module.
//
// Usage:
//
//	go run ./cmd/sklint ./...            # whole module (the CI gate)
//	go run ./cmd/sklint ./internal/core
//	go run ./cmd/sklint -rules           # list the rule set
//	go run ./cmd/sklint -json ./...      # machine-readable diagnostics
//
// sklint exits 0 when the tree is clean and 1 when any diagnostic fires.
// Suppress an individual finding with a `//lint:ignore <rule>[,<rule>...]
// <reason>` comment on the offending line or the line above; the reason is
// mandatory. See the "Static
// analysis & invariants" section of DESIGN.md for what each rule protects.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"surfknn/internal/lint"
)

func main() {
	listRules := flag.Bool("rules", false, "list the rules and exit")
	only := flag.String("only", "", "run a single rule by name")
	asJSON := flag.Bool("json", false, "emit diagnostics as JSON lines")
	github := flag.Bool("github", false, "also emit GitHub ::error annotations")
	flag.Parse()

	if *listRules {
		for _, r := range lint.AllRules() {
			fmt.Printf("%-24s %s\n", r.Name(), r.Doc())
		}
		return
	}

	rules := lint.AllRules()
	if *only != "" {
		r, ok := lint.RuleByName(*only)
		if !ok {
			fmt.Fprintf(os.Stderr, "sklint: unknown rule %q (see -rules)\n", *only)
			os.Exit(2)
		}
		rules = []lint.Rule{r}
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sklint:", err)
		os.Exit(2)
	}
	pkgs, err := lint.NewLoader().Load(root, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sklint:", err)
		os.Exit(2)
	}

	diags := lint.Run(pkgs, rules)
	for _, d := range diags {
		// Print module-relative paths: stable across machines, clickable in CI.
		if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil {
			d.Pos.Filename = rel
		}
		switch {
		case *asJSON:
			enc, _ := json.Marshal(map[string]any{ //lint:ignore dropped-error marshaling strings and ints cannot fail
				"file": d.Pos.Filename, "line": d.Pos.Line, "col": d.Pos.Column,
				"rule": d.Rule, "message": d.Message,
			})
			fmt.Println(string(enc))
		default:
			fmt.Println(d)
		}
		if *github {
			fmt.Printf("::error file=%s,line=%d,col=%d,title=sklint %s::%s\n",
				d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "sklint: %d issue(s)\n", len(diags))
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

package lint

import (
	"path/filepath"
	"testing"
)

func loaderFixture(t *testing.T, name string) (root, dir string) {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	dir, err = filepath.Abs(filepath.Join("testdata", "loader", name))
	if err != nil {
		t.Fatal(err)
	}
	return root, dir
}

// TestLoaderBuildTags loads a package partitioned by //go:build constraints
// and filename suffixes: exactly one osDep variant must be selected, and
// files behind an impossible tag or a foreign-platform suffix must never
// reach the type checker (they contain duplicate, non-type-checking
// declarations by construction).
func TestLoaderBuildTags(t *testing.T) {
	root, dir := loaderFixture(t, "tagged")
	p, err := NewLoader().LoadDir(root, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.TypeErrors) > 0 {
		t.Fatalf("tag-partitioned package does not type-check: %v", p.TypeErrors)
	}
	if len(p.Files) != 2 {
		t.Errorf("loaded %d files, want 2 (base.go + one variant)", len(p.Files))
	}
	if p.Pkg.Scope().Lookup("NeverBuilt") != nil {
		t.Error("file behind //go:build never_enabled_tag was loaded")
	}
	if p.Pkg.Scope().Lookup("osDep") == nil {
		t.Error("no osDep variant was selected")
	}
}

// TestLoaderSkipsAdjacentTestFiles loads a package whose _test.go file
// references undefined test-only symbols; the loader must not let it near
// the type checker.
func TestLoaderSkipsAdjacentTestFiles(t *testing.T) {
	root, dir := loaderFixture(t, "adjacent")
	p, err := NewLoader().LoadDir(root, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.TypeErrors) > 0 {
		t.Fatalf("package with adjacent _test.go does not type-check: %v", p.TypeErrors)
	}
	if len(p.Files) != 1 {
		t.Errorf("loaded %d files, want 1 (code.go only)", len(p.Files))
	}
	if p.Pkg.Scope().Lookup("TestExported") != nil {
		t.Error("_test.go file was loaded")
	}
}

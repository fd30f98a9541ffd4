package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"fastcc/internal/experiments"
)

// expLine matches a fastcc-bench command line and captures its -exp name.
var expLine = regexp.MustCompile(`fastcc-bench[^\n]*?\s-exp[ =]([A-Za-z0-9_-]+)`)

// TestDocumentedExperimentsExist keeps the experiment names that the build,
// CI and the docs pass to fastcc-bench in step with the registry, so a
// deleted or renamed experiment cannot linger in a command line.
func TestDocumentedExperimentsExist(t *testing.T) {
	known := map[string]bool{"all": true}
	for _, n := range experiments.Names() {
		known[n] = true
	}
	found := 0
	for _, name := range []string{"Makefile", ".github/workflows/ci.yml", "README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		raw, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range expLine.FindAllSubmatch(raw, -1) {
			found++
			if exp := string(m[1]); !known[exp] {
				t.Errorf("%s: %q runs unknown experiment %q (have %v and \"all\")", name, m[0], exp, experiments.Names())
			}
		}
	}
	if found == 0 {
		t.Fatal("found no fastcc-bench -exp command lines; the pattern no longer matches the docs")
	}
}

package lint_test

import (
	"go/types"
	"strings"
	"testing"

	"github.com/p2psim/collusion/internal/lint"
)

// testOnlyExports lists the exported package-level identifiers under
// internal/ that no non-test file uses but that stay on purpose, each
// with its reason.
var testOnlyExports = map[string]string{
	"internal/lint.Run": "entry point of the analyzer fixture harness in lint_test.go",
}

// TestNoTestOnlyExports fails on every exported package-level function,
// type, variable or constant under internal/ that no non-test file of the
// module uses: code that only tests reach still has to be kept correct by
// every change around it. It type-checks the whole module once (the
// loader reads non-test files only, epochbench/ included), because a run
// over a package subset cannot see that package's importers. Methods are
// out of scope: interface satisfaction calls them without naming them.
func TestNoTestOnlyExports(t *testing.T) {
	ldr, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ldr.Load(ldr.Root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	all := pkgs[0].LoadedPackages()
	used := make(map[types.Object]bool)
	for _, p := range all {
		for _, obj := range p.Info.Uses {
			used[obj] = true
		}
	}
	for _, p := range all {
		if !strings.HasPrefix(p.RelPath(), "internal/") {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			key := p.RelPath() + "." + name
			if obj := scope.Lookup(name); obj.Exported() && !used[obj] && testOnlyExports[key] == "" {
				t.Errorf("%s: no non-test file uses it; delete it, move it into a _test.go file, or list it in testOnlyExports with a reason", key)
			}
		}
	}
}

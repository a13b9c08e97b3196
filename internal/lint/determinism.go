package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// restrictedTrees lists the module-relative package trees in which all
// randomness must come from internal/rng and all time from the simulator
// clock. Everything the experiment pipeline touches is here; cmd/ wrappers
// merely forward seeds into these packages.
var restrictedTrees = []string{
	"internal/core",
	"internal/simulator",
	"internal/reputation",
	"internal/ingest",
	"internal/dht",
	"internal/overlay",
	"internal/analysis",
	"internal/experiments",
	"internal/obs",
	"internal/service",
	"internal/epoch",
}

// exemptTrees carves explicitly-unseeded subtrees out of the restricted
// set. internal/obs/prof is the profiling harness: it exists to read the
// wall clock and drive pprof, its measurements flow one way into
// histograms, and nothing seeded imports it for results.
// internal/obs/serve is the live telemetry HTTP plane: an operational
// server (timeouts, uptime, graceful shutdown) that only ever reads the
// registry and the span stream — telemetry flows one way, out.
// internal/service/httpapi is the detection service's HTTP request plane:
// it times requests into a latency histogram but contains no detection
// logic — the deterministic core it calls into (internal/service itself)
// stays restricted, which is what keeps request replay byte-exact.
var exemptTrees = []string{
	"internal/obs/prof",
	"internal/obs/serve",
	"internal/service/httpapi",
}

// forbiddenImports are packages that smuggle ambient nondeterminism into a
// restricted tree.
var forbiddenImports = map[string]string{
	"math/rand":    "use internal/rng (splittable, seeded) instead",
	"math/rand/v2": "use internal/rng (splittable, seeded) instead",
	"crypto/rand":  "use internal/rng (splittable, seeded) instead",
}

// forbiddenTimeFuncs are time-package functions that read the wall clock.
var forbiddenTimeFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
	"Tick":  true,
	"After": true,
}

// DeterminismAnalyzer forbids ambient randomness and wall-clock reads in
// the restricted package trees, where every run must replay bit-identically
// from a single seed.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "forbid math/rand, crypto/rand and wall-clock time in seeded simulation packages",
	Run:  runDeterminism,
}

// inRestrictedTree reports whether the pass's package lies in one of the
// restricted trees.
func inRestrictedTree(p *Pass) bool {
	rel := p.Pkg.RelPath()
	for _, tree := range exemptTrees {
		if rel == tree || strings.HasPrefix(rel, tree+"/") {
			return false
		}
	}
	for _, tree := range restrictedTrees {
		if rel == tree || strings.HasPrefix(rel, tree+"/") {
			return true
		}
	}
	return false
}

func runDeterminism(p *Pass) {
	if !inRestrictedTree(p) {
		return
	}
	for _, file := range p.Files {
		for _, imp := range file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if why, ok := forbiddenImports[path]; ok {
				p.Reportf(imp.Pos(), "import of %s in seeded package: %s", path, why)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := p.Pkg.Info.Uses[ident].(*types.PkgName)
			if !ok || pn.Imported().Path() != "time" {
				return true
			}
			if forbiddenTimeFuncs[sel.Sel.Name] {
				p.Reportf(sel.Pos(), "time.%s in seeded package: use the simulator clock", sel.Sel.Name)
			}
			return true
		})
	}
}

package lint_test

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"github.com/p2psim/collusion/internal/lint"
)

// sharedLoader caches one loader (and its source-imported standard
// library) across all fixture tests.
var sharedLoader = sync.OnceValues(func() (*lint.Loader, error) {
	return lint.NewLoader(".")
})

// loadFixture type-checks testdata/<name> under the given virtual import
// path (relative to the module root).
func loadFixture(t *testing.T, name, virtualPath string) *lint.Package {
	t.Helper()
	ldr, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := ldr.LoadDir(filepath.Join("testdata", name), ldr.Module+"/"+virtualPath)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// wantRe extracts the quoted expectation patterns of a // want comment.
var wantRe = regexp.MustCompile(`"([^"]*)"`)

// expectation is one // want "pattern" comment in a fixture file.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

func collectWants(t *testing.T, pkg *lint.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				rest := c.Text[idx+len("// want "):]
				pos := pkg.Fset.Position(c.Pos())
				groups := wantRe.FindAllStringSubmatch(rest, -1)
				if len(groups) == 0 {
					t.Fatalf("%s: malformed want comment %q", pos, c.Text)
				}
				for _, g := range groups {
					re, err := regexp.Compile(g[1])
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, g[1], err)
					}
					wants = append(wants, &expectation{
						file:    pos.Filename,
						line:    pos.Line,
						pattern: re,
					})
				}
			}
		}
	}
	return wants
}

// checkFixture runs one analyzer over a fixture package and verifies its
// findings against the fixture's // want comments, in both directions:
// every finding must be expected, and every expectation must fire.
func checkFixture(t *testing.T, a *lint.Analyzer, pkg *lint.Package) {
	t.Helper()
	wants := collectWants(t, pkg)
	findings := lint.Run([]*lint.Analyzer{a}, []*lint.Package{pkg})
	for _, f := range findings {
		ok := false
		for _, w := range wants {
			if !w.matched && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.pattern.MatchString(f.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

func TestDeterminismFixture(t *testing.T) {
	pkg := loadFixture(t, "determinism", "internal/core/lintfixture")
	checkFixture(t, lint.DeterminismAnalyzer, pkg)
}

// TestDeterminismUnrestrictedTreeSilent proves the determinism rules do
// not fire outside the seeded package trees: the same dirty fixture under
// a cmd/ path yields no findings.
func TestDeterminismUnrestrictedTreeSilent(t *testing.T) {
	pkg := loadFixture(t, "determinism", "cmd/lintfixture")
	findings := lint.Run([]*lint.Analyzer{lint.DeterminismAnalyzer}, []*lint.Package{pkg})
	if len(findings) != 0 {
		t.Fatalf("determinism fired outside restricted trees: %v", findings)
	}
}

// TestDeterminismObsRestricted proves the observability package is a
// seeded tree: the dirty fixture under internal/obs yields the same
// findings as under internal/core.
func TestDeterminismObsRestricted(t *testing.T) {
	pkg := loadFixture(t, "determinism", "internal/obs/lintfixture")
	checkFixture(t, lint.DeterminismAnalyzer, pkg)
}

// TestDeterminismIngestRestricted proves the intake package is a seeded
// tree: its trace bridge and delta-ring maintenance must never draw on
// unseeded randomness or the wall clock, so the dirty
// fixture under internal/ingest yields the same findings as under
// internal/core.
func TestDeterminismIngestRestricted(t *testing.T) {
	pkg := loadFixture(t, "determinism", "internal/ingest/lintfixture")
	checkFixture(t, lint.DeterminismAnalyzer, pkg)
}

// TestDeterminismProfExempt proves the explicitly-unseeded profiling
// harness is carved out: the same dirty fixture under internal/obs/prof
// yields no findings.
func TestDeterminismProfExempt(t *testing.T) {
	pkg := loadFixture(t, "determinism", "internal/obs/prof/lintfixture")
	findings := lint.Run([]*lint.Analyzer{lint.DeterminismAnalyzer}, []*lint.Package{pkg})
	if len(findings) != 0 {
		t.Fatalf("determinism fired in the exempt profiling harness: %v", findings)
	}
}

// TestDeterminismServeExempt proves the live telemetry HTTP plane is
// carved out like the profiling harness: the same dirty fixture —
// which under internal/obs itself still yields every finding
// (TestDeterminismObsRestricted) — produces none under
// internal/obs/serve, where listener timeouts and uptime legitimately
// read the wall clock.
func TestDeterminismServeExempt(t *testing.T) {
	pkg := loadFixture(t, "determinism", "internal/obs/serve/lintfixture")
	findings := lint.Run([]*lint.Analyzer{lint.DeterminismAnalyzer}, []*lint.Package{pkg})
	if len(findings) != 0 {
		t.Fatalf("determinism fired in the exempt telemetry plane: %v", findings)
	}
}

// TestDeterminismServiceRestricted proves the resident detection service
// is a seeded tree: epoch transitions, snapshot publication and request
// replay must be wall-clock- and randomness-free so a recorded request
// log replays byte-identically, so the dirty fixture under
// internal/service yields the same findings as under internal/core.
func TestDeterminismServiceRestricted(t *testing.T) {
	pkg := loadFixture(t, "determinism", "internal/service/lintfixture")
	checkFixture(t, lint.DeterminismAnalyzer, pkg)
}

// TestDeterminismEpochRestricted proves the epoch transition that the
// simulator and the service share is a seeded tree: the dirty fixture
// under internal/epoch yields the same findings as under internal/core.
func TestDeterminismEpochRestricted(t *testing.T) {
	pkg := loadFixture(t, "determinism", "internal/epoch/lintfixture")
	checkFixture(t, lint.DeterminismAnalyzer, pkg)
}

// TestDeterminismServiceHTTPExempt proves the service's HTTP request
// plane is carved out like internal/obs/serve: request-latency timing
// legitimately reads the wall clock, so the same dirty fixture produces
// no findings under internal/service/httpapi.
func TestDeterminismServiceHTTPExempt(t *testing.T) {
	pkg := loadFixture(t, "determinism", "internal/service/httpapi/lintfixture")
	findings := lint.Run([]*lint.Analyzer{lint.DeterminismAnalyzer}, []*lint.Package{pkg})
	if len(findings) != 0 {
		t.Fatalf("determinism fired in the exempt service HTTP plane: %v", findings)
	}
}

func TestErrDropFixture(t *testing.T) {
	pkg := loadFixture(t, "errdrop", "internal/lintfixture/errdrop")
	checkFixture(t, lint.ErrDropAnalyzer, pkg)
}

// TestErrDropFmtExemptInCommands proves the fmt print family is exempt
// from errdrop under cmd/, while genuine error drops stay flagged.
func TestErrDropFmtExemptInCommands(t *testing.T) {
	pkg := loadFixture(t, "errdrop", "cmd/lintfixture-errdrop")
	findings := lint.Run([]*lint.Analyzer{lint.ErrDropAnalyzer}, []*lint.Package{pkg})
	if len(findings) != 3 {
		t.Fatalf("got %d findings under cmd/, want 3 (fmt exempt, real drops kept): %v", len(findings), findings)
	}
	for _, f := range findings {
		if strings.Contains(f.Message, "Fprintln") {
			t.Errorf("fmt.Fprintln flagged under cmd/: %s", f)
		}
	}
}

func TestFloatEqFixture(t *testing.T) {
	pkg := loadFixture(t, "floateq", "internal/lintfixture/floateq")
	checkFixture(t, lint.FloatEqAnalyzer, pkg)
}

func TestMapOrderFixture(t *testing.T) {
	pkg := loadFixture(t, "maporder", "internal/lintfixture/maporder")
	checkFixture(t, lint.MapOrderAnalyzer, pkg)
}

func TestPrintFixture(t *testing.T) {
	pkg := loadFixture(t, "printlint", "internal/lintfixture/printlint")
	checkFixture(t, lint.PrintAnalyzer, pkg)
}

// TestPrintExemptInCommands proves printlint stays silent on the same
// dirty fixture when it lives under cmd/.
func TestPrintExemptInCommands(t *testing.T) {
	pkg := loadFixture(t, "printlint", "cmd/lintfixture-print")
	findings := lint.Run([]*lint.Analyzer{lint.PrintAnalyzer}, []*lint.Package{pkg})
	if len(findings) != 0 {
		t.Fatalf("printlint fired under cmd/: %v", findings)
	}
}

// TestFloatEqExemptInCommands proves floateq is scoped to library code.
func TestFloatEqExemptInCommands(t *testing.T) {
	pkg := loadFixture(t, "floateq", "cmd/lintfixture-floateq")
	findings := lint.Run([]*lint.Analyzer{lint.FloatEqAnalyzer}, []*lint.Package{pkg})
	if len(findings) != 0 {
		t.Fatalf("floateq fired under cmd/: %v", findings)
	}
}

// TestParReduceFixture checks the ordered-reduction rules on a dirty
// fixture placed in a seeded tree.
func TestParReduceFixture(t *testing.T) {
	pkg := loadFixture(t, "parreduce", "internal/core/lintfixture-parreduce")
	checkFixture(t, lint.ParReduceAnalyzer, pkg)
}

// TestParReduceUnrestrictedTreeSilent proves parreduce is scoped to the
// seeded trees: the same dirty fixture under cmd/ yields no findings.
func TestParReduceUnrestrictedTreeSilent(t *testing.T) {
	pkg := loadFixture(t, "parreduce", "cmd/lintfixture-parreduce")
	findings := lint.Run([]*lint.Analyzer{lint.ParReduceAnalyzer}, []*lint.Package{pkg})
	if len(findings) != 0 {
		t.Fatalf("parreduce fired outside restricted trees: %v", findings)
	}
}

// TestHotAllocFixture checks the allocation rules, the same-package call
// graph, coldpath carve-outs and suppression on one fixture. The fixture
// also contains a //colsimlint:ignore'd make that must stay silent.
func TestHotAllocFixture(t *testing.T) {
	pkg := loadFixture(t, "hotalloc", "internal/lintfixture/hotalloc")
	checkFixture(t, lint.HotAllocAnalyzer, pkg)
}

// TestHotAllocCrossPackage checks call-graph propagation into a
// dependency imported by its real module path: boundary call sites are
// flagged, interface calls widen to concrete implementations, and the
// dependency's own coldpath annotations and suppressions are honored.
func TestHotAllocCrossPackage(t *testing.T) {
	pkg := loadFixture(t, "hotallocdep", "internal/lintfixture/hotallocdep")
	checkFixture(t, lint.HotAllocAnalyzer, pkg)
}

// TestLockCheckFixture checks copied locks, mixed atomic/plain access and
// pool retention.
func TestLockCheckFixture(t *testing.T) {
	pkg := loadFixture(t, "lockcheck", "internal/lintfixture/lockcheck")
	checkFixture(t, lint.LockCheckAnalyzer, pkg)
}

// TestRunAllKeepsSuppressed proves RunAll retains suppressed findings
// (marked) while Run drops them: the hotalloc fixture's ignored make
// appears only in RunAll output.
func TestRunAllKeepsSuppressed(t *testing.T) {
	pkg := loadFixture(t, "hotalloc", "internal/lintfixture/hotalloc")
	as := []*lint.Analyzer{lint.HotAllocAnalyzer}
	all := lint.RunAll(as, []*lint.Package{pkg})
	run := lint.Run(as, []*lint.Package{pkg})
	var suppressed int
	for _, f := range all {
		if f.Suppressed {
			suppressed++
		}
	}
	if suppressed == 0 {
		t.Fatal("RunAll reported no suppressed findings; the fixture has one")
	}
	if len(all) != len(run)+suppressed {
		t.Fatalf("RunAll %d findings, Run %d + %d suppressed: totals disagree", len(all), len(run), suppressed)
	}
	for _, f := range run {
		if f.Suppressed {
			t.Fatalf("Run leaked a suppressed finding: %s", f)
		}
	}
}

// TestAnalyzersCatalogue pins the rule catalogue: names are unique,
// documented, and stable in order.
func TestAnalyzersCatalogue(t *testing.T) {
	got := lint.Analyzers()
	wantNames := []string{"determinism", "errdrop", "floateq", "hotalloc", "lockcheck", "maporder", "parreduce", "printlint"}
	if len(got) != len(wantNames) {
		t.Fatalf("catalogue has %d analyzers, want %d", len(got), len(wantNames))
	}
	for i, a := range got {
		if a.Name != wantNames[i] {
			t.Errorf("analyzer %d = %q, want %q", i, a.Name, wantNames[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing doc or run", a.Name)
		}
	}
}

// TestFindingString pins the file:line:col rendering CI consumers parse.
func TestFindingString(t *testing.T) {
	pkg := loadFixture(t, "floateq", "internal/lintfixture/floateq")
	findings := lint.Run([]*lint.Analyzer{lint.FloatEqAnalyzer}, []*lint.Package{pkg})
	if len(findings) == 0 {
		t.Fatal("no findings")
	}
	s := findings[0].String()
	if !strings.Contains(s, "dirty.go:") || !strings.Contains(s, "floateq:") {
		t.Fatalf("finding rendering = %q", s)
	}
}

// TestLoaderRejectsMissingDir pins loader error behavior.
func TestLoaderRejectsMissingDir(t *testing.T) {
	ldr, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ldr.LoadDir(filepath.Join("testdata", "no-such-dir"), ldr.Module+"/nope"); err == nil {
		t.Fatal("loading a missing directory succeeded")
	}
}

// TestLoadPatterns exercises the ./... pattern walk over this package's
// own tree: it must find internal/lint itself and skip testdata.
func TestLoadPatterns(t *testing.T) {
	ldr, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ldr.Load(".", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1 (testdata must be skipped)", len(pkgs))
	}
	if rel := pkgs[0].RelPath(); rel != "internal/lint" {
		t.Fatalf("RelPath = %q, want internal/lint", rel)
	}
	var names []string
	for _, f := range pkgs[0].Files {
		names = append(names, filepath.Base(fixtureFileName(pkgs[0], f)))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatalf("files not sorted: %v", names)
		}
	}
}

func fixtureFileName(p *lint.Package, f *ast.File) string {
	return p.Fset.Position(f.Pos()).Filename
}

// TestSuppressionDirective verifies //colsimlint:ignore silences a finding
// on its own line when it trails code, or on the line below when it stands
// alone, but nothing else.
func TestSuppressionDirective(t *testing.T) {
	pkg := loadFixture(t, "suppress", "internal/lintfixture/suppress")
	checkFixture(t, lint.FloatEqAnalyzer, pkg)
}

func ExampleFinding_String() {
	f := lint.Finding{Analyzer: "demo", Message: "message"}
	f.Pos.Filename, f.Pos.Line, f.Pos.Column = "x.go", 3, 7
	fmt.Println(f)
	// Output: x.go:3:7: demo: message
}

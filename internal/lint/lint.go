// Package lint is a small, dependency-free static-analysis framework for
// the project's determinism and correctness conventions.
//
// Every experiment in this reproduction must replay bit-identically from a
// single seed: randomness comes from internal/rng, simulated time from the
// simulator clock, and experiment output must not depend on map iteration
// order. The analyzers in this package turn those conventions into
// machine-checked invariants. They are built directly on go/parser, go/ast
// and go/types (with a module-aware source importer, see load.go), so the
// module stays free of external dependencies.
//
// The cmd/colsimlint binary drives the analyzers over package patterns and
// exits non-zero on findings; `make lint` and CI run it on every change.
//
// A finding can be suppressed where the convention is intentionally
// violated by placing
//
//	//colsimlint:ignore <analyzer>[,<analyzer>...] <reason>
//
// on the offending line or on the line directly above it. The reason is
// mandatory by convention (the linter does not parse it, reviewers do).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suppressed marks a finding matched by a //colsimlint:ignore
	// directive. Run drops suppressed findings; RunAll keeps them so
	// machine consumers (colsimlint -json) can audit what is being waived.
	Suppressed bool
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Analyzer is one named rule. Run inspects a type-checked package through
// the Pass and reports findings; it must not retain the Pass.
type Analyzer struct {
	// Name identifies the analyzer in findings and suppression comments.
	Name string
	// Doc is a one-line description shown by `colsimlint -list`.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass)
}

// Pass carries one type-checked package through an analyzer run.
type Pass struct {
	// Analyzer is the rule currently running.
	Analyzer *Analyzer
	// Fset resolves token.Pos values to positions.
	Fset *token.FileSet
	// Files are the package's parsed non-test source files.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *Package
	// report receives raw findings before suppression filtering.
	report func(Finding)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsLibrary reports whether the package is library code: not a main
// package and not under cmd/ or examples/. Several analyzers only apply
// to library code.
func (p *Pass) IsLibrary() bool {
	if p.Pkg.Types != nil && p.Pkg.Types.Name() == "main" {
		return false
	}
	rel := p.Pkg.RelPath()
	return rel != "cmd" && !strings.HasPrefix(rel, "cmd/") &&
		rel != "examples" && !strings.HasPrefix(rel, "examples/")
}

// Analyzers returns the full rule catalogue in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		ErrDropAnalyzer,
		FloatEqAnalyzer,
		HotAllocAnalyzer,
		LockCheckAnalyzer,
		MapOrderAnalyzer,
		ParReduceAnalyzer,
		PrintAnalyzer,
	}
}

// Run executes the given analyzers over the packages and returns the
// surviving (non-suppressed) findings sorted by position.
func Run(analyzers []*Analyzer, pkgs []*Package) []Finding {
	var out []Finding
	for _, f := range RunAll(analyzers, pkgs) {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}

// RunAll executes the given analyzers over the packages and returns every
// finding sorted by position, with suppressed findings retained and marked
// rather than dropped.
func RunAll(analyzers []*Analyzer, pkgs []*Package) []Finding {
	var out []Finding
	for _, pkg := range pkgs {
		sup := newSuppressions(pkg)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg,
			}
			pass.report = func(f Finding) {
				f.Suppressed = sup.suppressed(a.Name, f.Pos)
				out = append(out, f)
			}
			a.Run(pass)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// ignoreDirective is the suppression comment prefix.
const ignoreDirective = "//colsimlint:ignore"

// suppressions indexes //colsimlint:ignore comments by file and line.
type suppressions struct {
	// byLine maps filename -> line -> analyzer names suppressed there.
	byLine map[string]map[int][]string
}

func newSuppressions(pkg *Package) *suppressions {
	s := &suppressions{byLine: make(map[string]map[int][]string)}
	for _, file := range pkg.Files {
		var ends map[int]token.Pos // built on the file's first directive
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignoreDirective) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignoreDirective)
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				names := strings.Split(fields[0], ",")
				pos := pkg.Fset.Position(c.Pos())
				lines := s.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					s.byLine[pos.Filename] = lines
				}
				// A trailing directive covers its own line, a standalone
				// one the line below it.
				if ends == nil {
					ends = codeEnds(pkg.Fset, file)
				}
				ln := pos.Line
				if end, ok := ends[ln]; !ok || end > c.Pos() {
					ln++
				}
				lines[ln] = append(lines[ln], names...)
			}
		}
	}
	return s
}

// codeEnds maps each line of file that code ends on to the position
// where its first piece of code ends, so a comment at or after that
// position trails code.
func codeEnds(fset *token.FileSet, file *ast.File) map[int]token.Pos {
	tf := fset.File(file.Pos())
	ends := make(map[int]token.Pos)
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		}
		if end := n.End(); end.IsValid() {
			if first, ok := ends[tf.Line(end)]; !ok || end < first {
				ends[tf.Line(end)] = end
			}
		}
		return true
	})
	return ends
}

func (s *suppressions) suppressed(analyzer string, pos token.Position) bool {
	for _, name := range s.byLine[pos.Filename][pos.Line] {
		if name == analyzer || name == "all" {
			return true
		}
	}
	return false
}

// Package lint is a stdlib-only static-analysis framework over go/parser
// and go/types, purpose-built to machine-check this repository's standing
// invariants: deterministic artifact emission (no map-iteration order, no
// wall-clock time in hashed output), the panic-free front door, seeded
// randomness, and joined goroutines. It deliberately uses nothing outside
// the standard library — the module has zero dependencies and no network —
// so the loader, the pass runner, and the fixture harness are all local.
//
// The shape mirrors golang.org/x/tools/go/analysis at arm's length: an
// Analyzer holds a name and a Run function, a Pass hands the Run function
// one type-checked package plus a Report sink, and diagnostics carry
// file:line positions. Findings can be waived in source with
//
//	//unilint:ok <analyzer> <reason>
//
// either trailing the offending line or on a line of its own immediately
// above it. The reason is mandatory; a suppression with no reason, naming
// an unknown analyzer, or matching no finding is itself reported under the
// reserved pseudo-analyzer "unilint", which cannot be suppressed — the
// annotation layer stays honest by construction.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
)

// Analyzer is one named check. Run inspects a single type-checked package
// and reports findings through the pass.
type Analyzer struct {
	Name string // short lower-case identifier used in diagnostics and suppressions
	Doc  string // one-line description shown by `unilint -list`
	Run  func(*Pass)
}

// MetaAnalyzer is the reserved name under which the framework itself
// reports (malformed or unused suppressions). It is not suppressible.
const MetaAnalyzer = "unilint"

// Pass is the per-(analyzer, package) invocation context.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package // loaded, type-checked package under analysis

	diags *[]Diagnostic
}

// Fset returns the file set shared by every package in the load.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// TypeOf returns the type of e, or nil if the checker recorded none.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf returns the object denoted by id, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Pkg.Info.ObjectOf(id) }

// Reportf records a finding at pos. The position is rendered
// module-relative so artifacts are byte-identical across checkouts.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     p.Pkg.relFile(position.Filename),
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding. File is module-relative.
type Diagnostic struct {
	Analyzer   string `json:"analyzer"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Message    string `json:"msg"`
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"` // the //unilint:ok reason, when suppressed
}

// Pos renders the diagnostic position as file:line:col.
func (d Diagnostic) Pos() string { return fmt.Sprintf("%s:%d:%d", d.File, d.Line, d.Col) }

func (d Diagnostic) String() string {
	tag := ""
	if d.Suppressed {
		tag = fmt.Sprintf(" [suppressed: %s]", d.Reason)
	}
	return fmt.Sprintf("%s: %s: %s%s", d.Pos(), d.Analyzer, d.Message, tag)
}

// Result is the outcome of running a set of analyzers over a set of
// packages: every diagnostic (suppressed ones included, so artifacts
// record the full picture), in canonical order.
type Result struct {
	Analyzers []string     // names of the analyzers that ran, sorted
	Packages  int          // number of packages analyzed
	Diags     []Diagnostic // canonical order: file, line, col, analyzer, message
}

// Unsuppressed returns the findings that were not waived in source.
func (r *Result) Unsuppressed() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// SuppressedCount returns how many findings were waived.
func (r *Result) SuppressedCount() int {
	n := 0
	for _, d := range r.Diags {
		if d.Suppressed {
			n++
		}
	}
	return n
}

// Run executes the analyzers over the packages and resolves suppressions.
// The returned result is deterministic: diagnostics are sorted and carry
// module-relative paths.
func Run(pkgs []*Package, analyzers []*Analyzer) *Result {
	ran := make(map[string]bool, len(analyzers))
	names := make([]string, 0, len(analyzers))
	for _, az := range analyzers {
		ran[az.Name] = true
		names = append(names, az.Name)
	}
	sort.Strings(names)
	// A suppression may name any registered analyzer — running a subset
	// (-run) must not turn valid annotations into "unknown analyzer"
	// findings. Only suppressions for analyzers that actually ran are
	// checked for unusedness.
	known := make(map[string]bool, len(ran))
	for _, az := range All() {
		known[az.Name] = true
	}
	for name := range ran {
		known[name] = true
	}

	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, az := range analyzers {
			pass := &Pass{Analyzer: az, Pkg: pkg, diags: &diags}
			az.Run(pass)
		}
		diags = append(diags, applySuppressions(pkg, diags, known, ran)...)
	}
	sort.Slice(diags, func(i, j int) bool { return diagLess(diags[i], diags[j]) })
	return &Result{Analyzers: names, Packages: len(pkgs), Diags: diags}
}

// suppression is one parsed //unilint:ok comment.
type suppression struct {
	analyzer string
	reason   string
	file     string // module-relative file it lives in
	line     int    // line the comment sits on
	target   int    // source line it waives (same line, or the next one)
	used     bool
}

// okAttempt recognizes a comment that is trying to be a suppression (so
// prose that merely mentions the grammar is left alone), okRe the
// well-formed grammar.
var (
	okAttempt = regexp.MustCompile(`^//\s*unilint:ok(\s|$)`)
	okRe      = regexp.MustCompile(`^//\s*unilint:ok(?:\s+(\S+))?(?:\s+(.*\S))?\s*$`)
)

// parseSuppressions scans a file's comments for //unilint:ok markers.
// Malformed markers (missing analyzer or reason, or naming an analyzer
// that does not exist) are reported immediately under MetaAnalyzer.
func parseSuppressions(pkg *Package, f *ast.File, known map[string]bool, diags *[]Diagnostic) []*suppression {
	var sups []*suppression
	fset := pkg.Fset
	for _, cg := range f.Comments {
		groupEnd := fset.Position(cg.End()).Line
		for _, c := range cg.List {
			if !okAttempt.MatchString(c.Text) {
				continue
			}
			position := fset.Position(c.Pos())
			file := pkg.relFile(position.Filename)
			m := okRe.FindStringSubmatch(c.Text)
			bad := func(msg string) {
				*diags = append(*diags, Diagnostic{
					Analyzer: MetaAnalyzer, File: file,
					Line: position.Line, Col: position.Column, Message: msg,
				})
			}
			if m == nil {
				bad("malformed suppression: want //unilint:ok <analyzer> <reason>")
				continue
			}
			name, reason := m[1], m[2]
			if name == "" {
				bad("suppression names no analyzer: want //unilint:ok <analyzer> <reason>")
				continue
			}
			if name == MetaAnalyzer {
				bad("the unilint meta-analyzer cannot be suppressed")
				continue
			}
			if !known[name] {
				bad(fmt.Sprintf("suppression names unknown analyzer %q", name))
				continue
			}
			if reason == "" {
				bad(fmt.Sprintf("suppression of %q has no reason; the reason is mandatory", name))
				continue
			}
			target := position.Line
			if standsAlone(fset, f, c) {
				// A standalone suppression (possibly inside a larger
				// comment block) waives the first source line after its
				// comment group, so several can stack above one line.
				target = groupEnd + 1
			}
			sups = append(sups, &suppression{
				analyzer: name, reason: reason,
				file: file, line: position.Line, target: target,
			})
		}
	}
	return sups
}

// standsAlone reports whether comment c is the first token on its line,
// in which case it waives the line below rather than its own.
func standsAlone(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	line := fset.Position(c.Pos()).Line
	alone := true
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !alone {
			return false
		}
		if n.Pos() < c.Pos() && fset.Position(n.End()).Line >= line && fset.Position(n.Pos()).Line <= line {
			// Some declaration or statement occupies (part of) this line
			// before the comment: it is a trailing comment. Spanning
			// nodes (func bodies, blocks) don't count; only leaves whose
			// end lands on the line do.
			end := fset.Position(n.End()).Line
			if end == line {
				switch n.(type) {
				case *ast.File, *ast.BlockStmt, *ast.FuncDecl, *ast.GenDecl, *ast.CaseClause, *ast.CommClause:
					// containers ending here don't make the comment trailing
				default:
					alone = false
				}
			}
		}
		return alone
	})
	return alone
}

// applySuppressions marks diagnostics waived by suppressions in pkg's
// files, and reports unused suppressions for analyzers that ran. It
// returns the meta-diagnostics to append.
func applySuppressions(pkg *Package, diags []Diagnostic, known, ran map[string]bool) []Diagnostic {
	var meta []Diagnostic
	var sups []*suppression
	for _, f := range pkg.Files {
		sups = append(sups, parseSuppressions(pkg, f, known, &meta)...)
	}
	if len(sups) == 0 {
		return meta
	}
	for i := range diags {
		d := &diags[i]
		if d.Suppressed || d.Analyzer == MetaAnalyzer {
			continue
		}
		for _, s := range sups {
			if s.analyzer == d.Analyzer && s.file == d.File && s.target == d.Line {
				d.Suppressed = true
				d.Reason = s.reason
				s.used = true
				break
			}
		}
	}
	for _, s := range sups {
		if !s.used && ran[s.analyzer] {
			meta = append(meta, Diagnostic{
				Analyzer: MetaAnalyzer, File: s.file, Line: s.line, Col: 1,
				Message: fmt.Sprintf("unused suppression: no %s finding on %s:%d", s.analyzer, s.file, s.target),
			})
		}
	}
	return meta
}

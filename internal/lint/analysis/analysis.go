// Package analysis is a self-contained, stdlib-only miniature of the
// golang.org/x/tools/go/analysis framework: an Analyzer is a named
// check, a Pass hands it one type-checked package, and diagnostics
// carry positions back to the driver.
//
// The reproduction container vendors no external modules (the module
// cache is intentionally empty), so the real x/tools framework cannot
// be depended on; this package mirrors the subset viewplanlint needs —
// single-pass analyzers over syntax plus go/types information, with a
// per-analyzer suppression directive (//viewplan:<key> <reason>) in
// place of x/tools' diagnostic filtering. Analyzers written against it
// translate to the upstream API nearly line for line should the
// dependency ever become available.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in output and summaries.
	Name string
	// Doc is the one-paragraph description shown by viewplanlint -list.
	Doc string
	// Suppress is the directive key that silences a finding at its line
	// (e.g. "nondet-ok" honors //viewplan:nondet-ok <reason>). Empty
	// means findings cannot be annotated away.
	Suppress string
	// Run reports findings on one package through pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	PkgPath   string
	TypesInfo *types.Info
	Report    func(Diagnostic)

	// Source is the loaded package, carrying the lazily built
	// interprocedural facts shared by every analyzer in the run.
	Source *Package
}

// Interproc returns the package-local call graph and function
// summaries, built on first use and shared across analyzers.
func (p *Pass) Interproc() (*CallGraph, map[*types.Func]*Summary) {
	return p.Source.Interproc()
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding. The driver resolves Pos against the
// package's FileSet and attaches the analyzer name.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is a driver-resolved diagnostic: position rendered, analyzer
// attached, suppression resolved.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	// Suppressed is true when a //viewplan:<key> <reason> directive on
	// the finding's line (or the line above) annotates it as reviewed.
	Suppressed bool `json:"suppressed,omitempty"`
	// Reason is the directive's justification when Suppressed.
	Reason string `json:"reason,omitempty"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// RunAnalyzers applies each analyzer to pkg and resolves suppression
// directives: a finding whose analyzer declares a Suppress key is
// marked Suppressed when a matching directive sits on its line or the
// line immediately above. Directives with an empty reason yield their
// own findings (attributed to pseudo-analyzer "directive"), so an
// annotation can never silently drop its justification; a directive
// whose key belongs to an analyzer in this run but that matched no
// finding is reported as stale, so annotations cannot outlive the code
// smell they once excused.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	dirs := Directives(pkg.Fset, pkg.Files)
	used := make(map[*Directive]bool)
	var out []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			PkgPath:   pkg.PkgPath,
			TypesInfo: pkg.Info,
			Source:    pkg,
		}
		var diags []Diagnostic
		pass.Report = func(d Diagnostic) { diags = append(diags, d) }
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			f := Finding{
				Analyzer: a.Name,
				File:     pos.Filename,
				Line:     pos.Line,
				Col:      pos.Column,
				Message:  d.Message,
			}
			if a.Suppress != "" {
				if dir, ok := dirs.At(pos.Filename, pos.Line, a.Suppress); ok {
					f.Suppressed = true
					f.Reason = dir.Reason
					used[dir] = true
				}
			}
			out = append(out, f)
		}
	}
	keys := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		if a.Suppress != "" {
			keys[a.Suppress] = true
		}
	}
	for _, d := range dirs.all {
		switch {
		case d.Reason == "":
			out = append(out, Finding{
				Analyzer: "directive",
				File:     d.File,
				Line:     d.Line,
				Col:      d.Col,
				Message:  fmt.Sprintf("//viewplan:%s annotation needs a one-line reason", d.Key),
			})
		case keys[d.Key] && !used[d]:
			out = append(out, Finding{
				Analyzer: "directive",
				File:     d.File,
				Line:     d.Line,
				Col:      d.Col,
				Message:  fmt.Sprintf("stale //viewplan:%s annotation: no %s finding here anymore — delete it", d.Key, analyzerFor(analyzers, d.Key)),
			})
		}
	}
	return out, nil
}

// analyzerFor names the analyzer owning a suppression key.
func analyzerFor(analyzers []*Analyzer, key string) string {
	for _, a := range analyzers {
		if a.Suppress == key {
			return a.Name
		}
	}
	return key
}

package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Name    string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info

	// TestFiles marks the filenames (as rendered by Fset positions) that
	// came from _test.go sources. The driver drops findings in these
	// files for analyzers without IncludeTests.
	TestFiles map[string]bool

	// Lazily built interprocedural facts, shared by every analyzer that
	// calls Pass.Interproc.
	interOnce sync.Once
	graph     *CallGraph
	sums      map[*types.Func]*Summary
}

// Interproc builds (once) and returns the package-local call graph and
// function summaries.
func (p *Package) Interproc() (*CallGraph, map[*types.Func]*Summary) {
	p.interOnce.Do(func() {
		p.graph = BuildCallGraph(p.Files, p.Info)
		p.sums = Summarize(p.graph, p.Info)
	})
	return p.graph, p.sums
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath   string
	Name         string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Standard     bool
	DepOnly      bool
	ForTest      string
	Imports      []string
	Deps         []string // transitive imports
}

// Load resolves patterns with `go list -e -json -deps -test` from dir,
// type-checks every pattern-matched package from source — *including*
// its _test.go files: in-package test sources are merged into the
// package's check, and external _test packages are checked as their own
// package against the test-augmented import (and its dependents,
// rechecked against it) — and returns the pattern
// packages followed by their external test packages. The -race soaks
// live in test files; sweeping them is the point of the concurrency
// analyzers.
//
// Dependencies are resolved lazily and checked from their plain (non-
// test) sources only, which matches how the compiler builds them for
// import. Standard-library imports come from compiler export data via
// go/importer: no network, no module cache. The synthetic "foo.test"
// and "foo [foo.test]" entries -test emits are skipped — the real entry
// already carries the test file lists.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-json", "-deps", "-test", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	entries := make(map[string]*listPackage)
	var order []string // pattern packages, in go list output order
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		if lp.Standard || lp.Name == "" {
			continue
		}
		// Synthetic test entries: "p.test" (the generated main) and
		// "p [p.test]" / "p_test [p.test]" (test-augmented variants).
		// The real entry carries TestGoFiles/XTestGoFiles already.
		if lp.ForTest != "" || strings.HasSuffix(lp.ImportPath, ".test") {
			continue
		}
		e := lp
		entries[lp.ImportPath] = &e
		if !lp.DepOnly {
			order = append(order, lp.ImportPath)
		}
	}

	fset := token.NewFileSet()
	ld := &lazyLoader{
		entries: entries,
		fset:    fset,
		std:     importer.ForCompiler(fset, "gc", nil),
		plain:   make(map[string]*types.Package),
		loading: make(map[string]bool),
	}

	var pkgs []*Package
	for _, path := range order {
		lp := entries[path]
		pkg, err := ld.checkAugmented(lp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
		if len(lp.XTestGoFiles) > 0 {
			xpkg, err := ld.checkXTest(lp, pkg.Types)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, xpkg)
		}
	}
	return pkgs, nil
}

// lazyLoader type-checks packages on demand: dependencies from their
// plain GoFiles (memoized), pattern packages with test files merged.
type lazyLoader struct {
	entries map[string]*listPackage
	fset    *token.FileSet
	std     types.Importer
	plain   map[string]*types.Package
	loading map[string]bool // import-cycle guard
}

// Import resolves a dependency to its plain (non-test) check.
func (ld *lazyLoader) Import(path string) (*types.Package, error) {
	if p, ok := ld.plain[path]; ok {
		return p, nil
	}
	lp, ok := ld.entries[path]
	if !ok {
		return ld.std.Import(path)
	}
	if ld.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	ld.loading[path] = true
	defer delete(ld.loading, path)
	pkg, _, _, err := ld.check(path, lp.Dir, lp.GoFiles, nil, ld)
	if err != nil {
		return nil, err
	}
	ld.plain[path] = pkg
	return pkg, nil
}

// checkAugmented checks a pattern package with its in-package test
// files merged. When the package has no test files the result doubles
// as its plain check, so importers share the instance.
func (ld *lazyLoader) checkAugmented(lp *listPackage) (*Package, error) {
	ld.loading[lp.ImportPath] = true
	tpkg, files, info, err := ld.check(lp.ImportPath, lp.Dir, lp.GoFiles, lp.TestGoFiles, ld)
	delete(ld.loading, lp.ImportPath)
	if err != nil {
		return nil, err
	}
	if len(lp.TestGoFiles) == 0 {
		ld.plain[lp.ImportPath] = tpkg
	}
	pkg := &Package{
		PkgPath:   lp.ImportPath,
		Name:      lp.Name,
		Dir:       lp.Dir,
		Fset:      ld.fset,
		Files:     files,
		Types:     tpkg,
		Info:      info,
		TestFiles: make(map[string]bool, len(lp.TestGoFiles)),
	}
	for _, name := range lp.TestGoFiles {
		pkg.TestFiles[filepath.Join(lp.Dir, name)] = true
	}
	return pkg, nil
}

// checkXTest checks a package's external _test package against the
// test-augmented import of the package under test.
func (ld *lazyLoader) checkXTest(lp *listPackage, augmented *types.Package) (*Package, error) {
	imp := &overlayImporter{base: ld, path: lp.ImportPath, pkg: augmented, recheck: make(map[string]*types.Package)}
	path := lp.ImportPath + "_test"
	tpkg, files, info, err := ld.check(path, lp.Dir, lp.XTestGoFiles, nil, imp)
	if err != nil {
		return nil, err
	}
	pkg := &Package{
		PkgPath:   path,
		Name:      lp.Name + "_test",
		Dir:       lp.Dir,
		Fset:      ld.fset,
		Files:     files,
		Types:     tpkg,
		Info:      info,
		TestFiles: make(map[string]bool, len(lp.XTestGoFiles)),
	}
	for _, name := range lp.XTestGoFiles {
		pkg.TestFiles[filepath.Join(lp.Dir, name)] = true
	}
	return pkg, nil
}

// check parses names (+extra) under dir and type-checks them as path.
func (ld *lazyLoader) check(path, dir string, names, extra []string, imp types.Importer) (*types.Package, []*ast.File, *types.Info, error) {
	var files []*ast.File
	for _, name := range append(append([]string{}, names...), extra...) {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return tpkg, files, info, nil
}

// overlayImporter serves one import path from a pre-checked package
// (the test-augmented package under test) and everything else from the
// base loader. As `go test` recompiles them, a dependency that itself
// imports the package under test is rechecked against the augmented
// package, so an external test can pass that package's values to it.
type overlayImporter struct {
	base    *lazyLoader
	path    string
	pkg     *types.Package
	recheck map[string]*types.Package
}

func (o *overlayImporter) Import(path string) (*types.Package, error) {
	if path == o.path {
		return o.pkg, nil
	}
	if p, ok := o.recheck[path]; ok {
		return p, nil
	}
	lp, ok := o.base.entries[path]
	if !ok || !slices.Contains(lp.Deps, o.path) {
		return o.base.Import(path)
	}
	p, _, _, err := o.base.check(path, lp.Dir, lp.GoFiles, nil, o)
	if err != nil {
		return nil, err
	}
	o.recheck[path] = p
	return p, nil
}

// LoadDir parses and type-checks the .go files of a single directory as
// one package, resolving imports against root (GOPATH-style: import
// "obs" resolves to root/obs). It backs the analysistest fixtures,
// which live under testdata and are invisible to go list. Files named
// *_test.go are marked in TestFiles, so fixtures can prove the
// test-file gating both ways.
func LoadDir(root, pkg string) (*Package, error) {
	fset := token.NewFileSet()
	imp := &fixtureImporter{
		root:   root,
		fset:   fset,
		std:    importer.ForCompiler(fset, "gc", nil),
		loaded: make(map[string]*types.Package),
	}
	return imp.load(pkg)
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// fixtureImporter loads GOPATH-style fixture packages on demand,
// recursively, falling back to stdlib export data.
type fixtureImporter struct {
	root   string
	fset   *token.FileSet
	std    types.Importer
	loaded map[string]*types.Package
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if p, ok := fi.loaded[path]; ok {
		return p, nil
	}
	dir := filepath.Join(fi.root, filepath.FromSlash(path))
	if matches, _ := filepath.Glob(filepath.Join(dir, "*.go")); len(matches) > 0 {
		pkg, err := fi.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return fi.std.Import(path)
}

func (fi *fixtureImporter) load(path string) (*Package, error) {
	dir := filepath.Join(fi.root, filepath.FromSlash(path))
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		return nil, fmt.Errorf("fixture package %s: no .go files in %s", path, dir)
	}
	var files []*ast.File
	pkgName := ""
	testFiles := make(map[string]bool)
	for _, name := range names {
		f, err := parser.ParseFile(fi.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing fixture %s: %w", name, err)
		}
		files = append(files, f)
		pkgName = f.Name.Name
		if strings.HasSuffix(name, "_test.go") {
			testFiles[name] = true
		}
	}
	info := newInfo()
	conf := types.Config{Importer: fi}
	tpkg, err := conf.Check(path, fi.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %s: %w", path, err)
	}
	fi.loaded[path] = tpkg
	return &Package{
		PkgPath:   path,
		Name:      pkgName,
		Dir:       dir,
		Fset:      fi.fset,
		Files:     files,
		Types:     tpkg,
		Info:      info,
		TestFiles: testFiles,
	}, nil
}

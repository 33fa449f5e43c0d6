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
	"sync"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info

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
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
}

// Load resolves patterns with `go list -e -json -deps` from dir,
// type-checks every module package the patterns reach from its GoFiles
// — production sources only; test files are never loaded — and returns
// the pattern packages in go list order. Dependencies and pattern
// packages share one memoized check, so a package imported by another
// pattern package is checked once. Standard-library imports come from
// compiler export data via go/importer: no network, no module cache.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	entries := make(map[string]listPackage)
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
		entries[lp.ImportPath] = lp
		if !lp.DepOnly {
			order = append(order, lp.ImportPath)
		}
	}

	ld := newLoader(func(path string) []string {
		lp := entries[path]
		files := make([]string, len(lp.GoFiles))
		for i, name := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, name)
		}
		return files
	})
	pkgs := make([]*Package, 0, len(order))
	for _, path := range order {
		pkg, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		if pkg != nil { // a directory of test files only
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// LoadDir parses and type-checks the .go files of a single directory as
// one package, resolving imports against root (GOPATH-style: import
// "obs" resolves to root/obs). It backs the analysistest fixtures,
// which live under testdata and are invisible to go list.
func LoadDir(root, pkg string) (*Package, error) {
	ld := newLoader(func(path string) []string {
		files, _ := filepath.Glob(filepath.Join(root, filepath.FromSlash(path), "*.go"))
		return files
	})
	p, err := ld.load(pkg)
	if err == nil && p == nil {
		err = fmt.Errorf("fixture package %s: no .go files under %s", pkg, root)
	}
	return p, err
}

// loader type-checks packages on demand, each once. find lists a
// package's source files; a path it finds no files for is served from
// the standard library's export data.
type loader struct {
	find    func(path string) []string
	fset    *token.FileSet
	std     types.Importer
	loaded  map[string]*Package
	loading map[string]bool // import-cycle guard
}

func newLoader(find func(path string) []string) *loader {
	fset := token.NewFileSet()
	return &loader{
		find:    find,
		fset:    fset,
		std:     importer.ForCompiler(fset, "gc", nil),
		loaded:  make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

// Import implements types.Importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	p, err := ld.load(path)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return ld.std.Import(path)
	}
	return p.Types, nil
}

// load parses and type-checks path, memoized. It returns nil, nil when
// find has no files for path.
func (ld *loader) load(path string) (*Package, error) {
	if p, ok := ld.loaded[path]; ok {
		return p, nil
	}
	names := ld.find(path)
	if len(names) == 0 {
		return nil, nil
	}
	if ld.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	ld.loading[path] = true
	defer delete(ld.loading, path)

	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(ld.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: ld}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	p := &Package{
		PkgPath: path,
		Fset:    ld.fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}
	ld.loaded[path] = p
	return p, nil
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

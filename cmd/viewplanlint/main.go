// viewplanlint is the repo's multichecker: it runs the internal/lint
// analyzer suite (mapiterdet, tracerparam, internmix, wallclock,
// sortslice, nilness, poolsafe, frozenwrite, locksafe) over the
// production sources of package patterns — never _test.go files; lock
// copies there are `go vet`'s — and fails on any unannotated finding,
// machine-checking the invariants of DESIGN §8–§10 and §15.
//
// Usage:
//
//	viewplanlint [flags] [packages]
//
//	-json            emit findings and per-analyzer counts as JSON on stdout
//	-list            list the analyzers and their docs, then exit
//	-a               also print annotated (suppressed) findings with reasons
//	-baseline FILE   fail only on findings not recorded in FILE
//	-write-baseline FILE
//	                 snapshot current unannotated findings into FILE and exit
//
// With no packages, ./... is linted. Exit status 1 means unannotated
// findings (or a //viewplan: annotation missing its reason, or a stale
// annotation matching nothing); 2 means the run itself failed.
//
// The baseline is a JSON snapshot of unannotated findings keyed by
// (analyzer, file, message) — line numbers are recorded for humans but
// ignored when diffing, so unrelated edits shifting a file don't
// invalidate it. A finding present in the baseline is reported but does
// not fail the run; a new finding always does. scripts/check.sh runs
// with the checked-in lint_baseline.json, so future PRs can land with
// known, annotated-in-bulk findings without green-washing new ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"viewplan/internal/lint"
	"viewplan/internal/lint/analysis"
)

type jsonReport struct {
	Findings []analysis.Finding `json:"findings"`
	// Counts maps analyzer name to unannotated finding count.
	Counts map[string]int `json:"counts"`
	// Annotated maps analyzer name to suppressed finding count.
	Annotated map[string]int `json:"annotated"`
	// New maps analyzer name to the count of unannotated findings not
	// covered by the baseline (equal to Counts without -baseline).
	New map[string]int `json:"new,omitempty"`
}

// baselineFile is the on-disk snapshot format.
type baselineFile struct {
	Findings []analysis.Finding `json:"findings"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON for machine consumption")
	list := flag.Bool("list", false, "list analyzers and exit")
	showAnnotated := flag.Bool("a", false, "also print annotated (suppressed) findings")
	baselinePath := flag.String("baseline", "", "JSON baseline: fail only on findings not recorded in this file")
	writeBaseline := flag.String("write-baseline", "", "write current unannotated findings to this file and exit")
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	pkgs, err := analysis.Load(".", flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "viewplanlint:", err)
		os.Exit(2)
	}

	cwd, _ := os.Getwd()
	var all []analysis.Finding
	for _, pkg := range pkgs {
		fs, err := analysis.RunAnalyzers(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "viewplanlint:", err)
			os.Exit(2)
		}
		for _, f := range fs {
			f.File = relPath(cwd, f.File)
			all = append(all, f)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})

	counts := make(map[string]int)
	annotated := make(map[string]int)
	for _, a := range analyzers {
		counts[a.Name], annotated[a.Name] = 0, 0
	}
	active := all[:0:0]
	for _, f := range all {
		if f.Suppressed {
			annotated[f.Analyzer]++
			continue
		}
		counts[f.Analyzer]++
		active = append(active, f)
	}

	if *writeBaseline != "" {
		if err := writeBaselineFile(*writeBaseline, active); err != nil {
			fmt.Fprintln(os.Stderr, "viewplanlint:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "viewplanlint: wrote %d finding(s) to %s\n", len(active), *writeBaseline)
		return
	}

	// Against a baseline, only findings beyond the recorded ones fail
	// the run. Matching ignores line numbers (keyed by analyzer + file +
	// message) so edits that shift a file don't churn the baseline.
	newFindings := active
	if *baselinePath != "" {
		base, err := readBaselineFile(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "viewplanlint:", err)
			os.Exit(2)
		}
		budget := make(map[string]int, len(base.Findings))
		for _, f := range base.Findings {
			budget[baselineKey(f)]++
		}
		newFindings = active[:0:0]
		for _, f := range active {
			k := baselineKey(f)
			if budget[k] > 0 {
				budget[k]--
				continue
			}
			newFindings = append(newFindings, f)
		}
	}
	newCounts := make(map[string]int)
	for _, a := range analyzers {
		newCounts[a.Name] = 0
	}
	newCounts["directive"] = 0
	for _, f := range newFindings {
		newCounts[f.Analyzer]++
	}

	if *jsonOut {
		report := jsonReport{Findings: active, Counts: counts, Annotated: annotated}
		if *baselinePath != "" {
			report.New = newCounts
		}
		if *showAnnotated {
			report.Findings = all
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "viewplanlint:", err)
			os.Exit(2)
		}
	} else {
		baselined := len(active) - len(newFindings)
		for _, f := range newFindings {
			fmt.Println(f)
		}
		for _, f := range all {
			if f.Suppressed && *showAnnotated {
				fmt.Printf("%s (annotated: %s)\n", f, f.Reason)
			}
		}
		names := make([]string, 0, len(counts))
		for n := range counts {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(os.Stderr, "viewplanlint: %-12s %3d finding(s), %3d annotated\n", n, counts[n], annotated[n])
		}
		if *baselinePath != "" && baselined > 0 {
			fmt.Fprintf(os.Stderr, "viewplanlint: %d finding(s) covered by baseline %s\n", baselined, *baselinePath)
		}
	}

	if len(newFindings) > 0 {
		os.Exit(1)
	}
}

func baselineKey(f analysis.Finding) string {
	return f.Analyzer + "\x00" + filepath.ToSlash(f.File) + "\x00" + f.Message
}

func relPath(cwd, file string) string {
	if cwd == "" || !filepath.IsAbs(file) {
		return file
	}
	rel, err := filepath.Rel(cwd, file)
	if err != nil {
		return file
	}
	return rel
}

func readBaselineFile(path string) (*baselineFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading baseline: %w", err)
	}
	var base baselineFile
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	return &base, nil
}

func writeBaselineFile(path string, findings []analysis.Finding) error {
	base := baselineFile{Findings: make([]analysis.Finding, 0, len(findings))}
	for _, f := range findings {
		f.File = filepath.ToSlash(f.File)
		base.Findings = append(base.Findings, f)
	}
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

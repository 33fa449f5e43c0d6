// Command corecover rewrites a conjunctive query using materialized
// views: it runs the CoreCover algorithm (and variants) on a Datalog
// input file and prints the generated rewritings, view tuples, and
// tuple-cores.
//
// Input format: a Datalog program whose FIRST rule is the query and whose
// remaining rules are the view definitions.
//
//	q1(S, C) :- car(M, a), loc(a, C), part(S, M, C).
//	v1(M, D, C) :- car(M, D), loc(D, C).
//	v2(S, M, C) :- part(S, M, C).
//
// Usage:
//
//	corecover [-star] [-algo corecover|minicon|bucket|naive] [-verbose]
//	          [-trace] [-traceout trace.json] [-explain]
//	          [-data facts.dl] [-model M1|M2|M3] file.dl
//
// With -data, the base facts are loaded, views are materialized, and each
// rewriting is costed under the chosen model. With -trace, a per-phase
// time and work-counter breakdown of the planning run is printed. With
// -traceout, the run's phase spans are written as a Chrome trace-event
// file, loadable at ui.perfetto.dev. With -explain, each rewriting is
// annotated with the query subgoals every view literal covers (and, with
// -data, the chosen plan's step tree).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"viewplan"
	"viewplan/internal/bucket"
	"viewplan/internal/corecover"
	"viewplan/internal/cost"
	"viewplan/internal/cq"
	"viewplan/internal/minicon"
	"viewplan/internal/naive"
	"viewplan/internal/views"
)

// config collects the command-line options run needs.
type config struct {
	star     bool   // CoreCover* instead of CoreCover
	algo     string // corecover, minicon, bucket, naive
	verbose  bool   // print tuples, cores, equivalence classes
	trace    bool   // print the phase/counter breakdown
	explain  bool   // annotate rewritings with their covers
	data     string // fact file enabling cost-based plans
	model    string // M1, M2, M3
	maxRW    int    // rewriting cap (0 = all)
	traceout string // Chrome trace-event output file
}

func main() {
	var cfg config
	flag.BoolVar(&cfg.star, "star", false, "run CoreCover* (all minimal rewritings using view tuples) instead of CoreCover (GMRs only)")
	flag.StringVar(&cfg.algo, "algo", "corecover", "rewriting algorithm: corecover, minicon, bucket, or naive")
	flag.BoolVar(&cfg.verbose, "verbose", false, "print view tuples, tuple-cores, and equivalence classes")
	flag.BoolVar(&cfg.trace, "trace", false, "print the per-phase time and counter breakdown of the planning run")
	flag.BoolVar(&cfg.explain, "explain", false, "annotate each rewriting with the query subgoals its view literals cover")
	flag.StringVar(&cfg.data, "data", "", "file of ground facts; enables cost-based plan output")
	flag.StringVar(&cfg.model, "model", "M2", "cost model for -data plans: M1, M2, or M3")
	flag.IntVar(&cfg.maxRW, "max", 0, "cap the number of rewritings (0 = all)")
	flag.StringVar(&cfg.traceout, "traceout", "", "write the run's phase spans as a Chrome trace-event file (Perfetto-loadable)")
	flag.Parse()
	if err := run(os.Stdout, cfg, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "corecover:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, cfg config, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: corecover [flags] file.dl (see -h)")
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	rules, err := cq.ParseProgram(string(src))
	if err != nil {
		return err
	}
	if len(rules) < 2 {
		return fmt.Errorf("input needs a query rule and at least one view rule")
	}
	q := rules[0]
	vs, err := views.NewSet(rules[1:]...)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "query: %s\n", q)
	fmt.Fprintf(w, "views: %d\n", vs.Len())

	var tracer *viewplan.Tracer
	if cfg.trace || cfg.traceout != "" {
		tracer = viewplan.NewTracer()
	}
	if cfg.traceout != "" {
		tracer.CaptureEvents()
	}

	var rewritings []*cq.Query
	var res *corecover.Result
	switch cfg.algo {
	case "corecover":
		opts := corecover.Options{MaxRewritings: cfg.maxRW, Tracer: tracer}
		if cfg.star {
			res, err = corecover.CoreCoverStar(q, vs, opts)
		} else {
			res, err = corecover.CoreCover(q, vs, opts)
		}
		if err != nil {
			return err
		}
		rewritings = res.Rewritings
		if cfg.verbose {
			printDetails(w, res)
		}
	case "minicon":
		rewritings = minicon.Rewritings(q, vs, minicon.Options{EquivalentOnly: true, MaxRewritings: cfg.maxRW})
	case "bucket":
		rewritings, err = bucket.Rewritings(q, vs, bucket.Options{MaxRewritings: cfg.maxRW})
		if err != nil {
			return err
		}
	case "naive":
		rewritings, err = naive.GMRs(q, vs, naive.Options{MaxRewritings: cfg.maxRW})
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown algorithm %q", cfg.algo)
	}
	if (cfg.trace || cfg.traceout != "") && cfg.algo != "corecover" {
		return fmt.Errorf("-trace and -traceout instrument the corecover algorithm only (got -algo %s)", cfg.algo)
	}
	if cfg.explain && res == nil {
		return fmt.Errorf("-explain needs the corecover algorithm (got -algo %s)", cfg.algo)
	}

	if len(rewritings) == 0 {
		fmt.Fprintln(w, "no equivalent rewriting exists")
		if cfg.trace {
			printTrace(w, tracer)
		}
		return writeTraceFile(cfg.traceout, tracer)
	}
	fmt.Fprintf(w, "rewritings (%d):\n", len(rewritings))
	for _, p := range rewritings {
		fmt.Fprintf(w, "  %s   [M1 cost %d]\n", p, cost.M1Cost(p))
	}
	if cfg.explain {
		printExplain(w, res)
	}

	if cfg.data != "" {
		if err := costPlans(w, q, vs, rewritings, cfg, tracer); err != nil {
			return err
		}
	}
	if cfg.trace {
		printTrace(w, tracer)
	}
	return writeTraceFile(cfg.traceout, tracer)
}

// printTrace renders the tracer snapshot (phase breakdown + counters).
func printTrace(w io.Writer, tracer *viewplan.Tracer) {
	if tracer == nil {
		return
	}
	fmt.Fprint(w, tracer.Snapshot().Text())
}

// writeTraceFile writes the tracer's captured spans as a Chrome
// trace-event file; a no-op when no path was given.
func writeTraceFile(path string, tracer *viewplan.Tracer) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := viewplan.WriteTrace(f, tracer); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace written to %s (open at ui.perfetto.dev)\n", path)
	return nil
}

func printDetails(w io.Writer, res *corecover.Result) {
	fmt.Fprintf(w, "minimized query: %s\n", res.MinimalQuery)
	fmt.Fprintf(w, "view equivalence classes: %d\n", len(res.ViewClasses))
	for _, class := range res.ViewClasses {
		names := make([]string, len(class))
		for i, v := range class {
			names[i] = v.Name()
		}
		sort.Strings(names)
		fmt.Fprintf(w, "  %v (representative %s)\n", names, class[0].Name())
	}
	fmt.Fprintf(w, "view tuples and tuple-cores:\n")
	for _, c := range res.Classes {
		members := make([]string, len(c.Members))
		for i, m := range c.Members {
			members[i] = m.Atom.String()
		}
		role := "core"
		if c.Core.IsEmpty() {
			role = "filter (empty core)"
		}
		fmt.Fprintf(w, "  %v covers %v  [%s]\n", members, c.Core.Covered, role)
	}
}

// printExplain renders each rewriting as an annotated tree: every view
// literal with the tuple-core subgoals of the minimized query it covers
// and the view it comes from.
func printExplain(w io.Writer, res *corecover.Result) {
	fmt.Fprintf(w, "explain (minimized query: %s):\n", res.MinimalQuery)
	for i, p := range res.Rewritings {
		fmt.Fprintf(w, "  %s\n", p)
		if i >= len(res.Covers) {
			continue
		}
		cover := res.Covers[i]
		for j, ci := range cover {
			branch := "├─"
			if j == len(cover)-1 {
				branch = "└─"
			}
			var lit string
			if j < len(p.Body) {
				lit = p.Body[j].String()
			}
			class := res.Classes[ci]
			fmt.Fprintf(w, "    %s %s  covers %s (%s)  [view %s]\n",
				branch, lit, class.Core.Covered, coveredAtoms(res, class.Core.Covered), class.Core.Tuple.View.Def)
		}
	}
}

// coveredAtoms lists the minimized-query subgoals in s, comma separated.
func coveredAtoms(res *corecover.Result, s corecover.SubgoalSet) string {
	out := ""
	for i, idx := range s.Elements() {
		if i > 0 {
			out += ", "
		}
		out += res.MinimalQuery.Body[idx].String()
	}
	if out == "" {
		out = "nothing"
	}
	return out
}

func costPlans(w io.Writer, q *cq.Query, vs *views.Set, rewritings []*cq.Query, cfg config, tracer *viewplan.Tracer) error {
	facts, err := os.ReadFile(cfg.data)
	if err != nil {
		return err
	}
	db := viewplan.NewDatabase()
	if err := db.LoadFacts(string(facts)); err != nil {
		return err
	}
	if err := db.MaterializeViews(vs); err != nil {
		return err
	}
	db.SetTracer(tracer)
	fmt.Fprintf(w, "plans over %s (model %s):\n", cfg.data, cfg.model)
	type costed struct {
		p    *cq.Query
		plan *cost.Plan
	}
	var best *costed
	for _, p := range rewritings {
		var plan *cost.Plan
		switch cfg.model {
		case "M1":
			fmt.Fprintf(w, "  %s: cost %d\n", p, cost.M1Cost(p))
			continue
		case "M2":
			plan, err = cost.BestPlanM2(db, p)
		case "M3":
			plan, err = cost.BestPlanM3(db, p, cost.RenamingHeuristic, q, vs)
		default:
			return fmt.Errorf("unknown model %q", cfg.model)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %s\n    %s\n", p, plan)
		if best == nil || plan.Cost < best.plan.Cost {
			best = &costed{p, plan}
		}
	}
	if best != nil {
		fmt.Fprintf(w, "best: %s (cost %d)\n", best.p, best.plan.Cost)
		if cfg.explain {
			fmt.Fprintf(w, "%s\n", indent(best.plan.Tree(), "  "))
		}
	}
	return nil
}

// indent prefixes every line of s.
func indent(s, prefix string) string {
	out := prefix
	for _, r := range s {
		out += string(r)
		if r == '\n' {
			out += prefix
		}
	}
	return out
}

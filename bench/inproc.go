package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"viewplan"
	"viewplan/internal/cost"
	"viewplan/internal/engine"
	"viewplan/internal/workload"
)

// genInstance draws instance seeds until the query has a rewriting, as
// the paper's experiments skip queries without one: an op that plans
// nothing would sit in the latency distribution as a near-zero sample.
func genInstance(rng *rand.Rand, cfg workload.Config) (*workload.Instance, error) {
	for tries := 0; tries < 100; tries++ {
		cfg.Seed = rng.Int63()
		inst, err := workload.Generate(cfg)
		if err != nil {
			return nil, err
		}
		ok, err := viewplan.HasRewriting(inst.Query, inst.Views)
		if err != nil {
			return nil, err
		}
		if ok {
			return inst, nil
		}
	}
	return nil, fmt.Errorf("no instance with a rewriting in 100 draws of %+v", cfg)
}

// instance hashes an instance into an op-list digest.
func (d *digest) instance(inst *workload.Instance) {
	if d == nil {
		return
	}
	d.line(inst.Query.String())
	for _, v := range inst.Views.Views {
		d.line(v.String())
	}
}

// allocDelta measures bytes allocated by the process across fn.
func allocDelta(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// ---- plan-cold ----

// planOp is one cold request: its own instance over its own database.
type planOp struct {
	class string // star_m2, chain_m2 or star_m3
	inst  *workload.Instance
	db    *viewplan.Database
	req   viewplan.PlanRequest
}

// planColdRound is the class of each op of a round before shuffling:
// 80 % star M2, 16 % chain M2, 4 % star M3. The chain ops are ~8x a star
// op, so op_p50_ms sits in the star mode and op_p90_ms inside the chain
// mode, away from either edge.
var planColdRound = func() []string {
	classes := make([]string, 0, 25)
	for i := 0; i < 20; i++ {
		classes = append(classes, "star_m2")
	}
	return append(classes, "chain_m2", "chain_m2", "chain_m2", "chain_m2", "star_m3")
}()

// warmups is the number of untimed ops a run starts with.
const warmups = 5

// materialize fills a database's view relations; a traced replay books
// the time as the engine layer's share of set-up.
func (e *env) materialize(log *spanLog, op int, db *viewplan.Database, vs *viewplan.ViewSet) error {
	var err error
	d := log.timed("engine.materialize", op, func() { err = db.MaterializeViews(vs) })
	if log != nil {
		e.layers.addDur("engine.materialize", d)
		e.layers.add("engine.materialize.n", 1)
	}
	return err
}

func (e *env) buildPlanOps(rng *rand.Rand, classes []string, log *spanLog, in *digest) ([]planOp, error) {
	ops := make([]planOp, len(classes))
	for i, class := range classes {
		op := planOp{class: class, req: viewplan.PlanRequest{MaxRewritings: 64, Execute: true}}
		var cfg workload.Config
		switch class {
		case "star_m2":
			cfg = workload.Config{Shape: workload.Star, QuerySubgoals: 8, NumViews: 100 + 100*(i%2)}
		case "chain_m2":
			// 8 chain subgoals cost 0.5 s an op; 6 keep the op count up.
			cfg = workload.Config{Shape: workload.Chain, QuerySubgoals: 6, NumViews: 150}
		case "star_m3":
			// M3 ordering enumerates permutations: 8 subgoals cost 0.3-5 s
			// an op, 6 subgoals 15-250 ms.
			cfg = workload.Config{Shape: workload.Star, QuerySubgoals: 6, NumViews: 100}
			op.req.Model = viewplan.M3
			op.req.MaxRewritings = 8
		}
		var err error
		if op.inst, err = genInstance(rng, cfg); err != nil {
			return nil, err
		}
		in.line(class)
		in.instance(op.inst)
		op.db = viewplan.NewDatabase()
		engine.NewDataGen(rng.Int63(), 100).FillForQuery(op.db, op.inst.Query, 100)
		if err := e.materialize(log, i, op.db, op.inst.Views); err != nil {
			return nil, err
		}
		ops[i] = op
	}
	return ops, nil
}

func planColdClasses(rng *rand.Rand) []string {
	classes := append([]string(nil), planColdRound...)
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	return classes
}

func runPlanCold(e *env, round int) (*roundResult, error) {
	res := &roundResult{}
	start := time.Now()
	rng := e.rng(round)
	ops, err := e.buildPlanOps(rng, planColdClasses(rng), nil, nil)
	if err != nil {
		return nil, err
	}
	if round == 0 {
		warm := make([]string, warmups)
		for i := range warm {
			warm[i] = "star_m2"
		}
		warmOps, err := e.buildPlanOps(e.rng(-1), warm, nil, nil)
		if err != nil {
			return nil, err
		}
		for _, op := range warmOps {
			if _, err := viewplan.PlanQuery(op.db, op.inst.Query, op.inst.Views, op.req); err != nil {
				return nil, err
			}
		}
	}
	res.setup = time.Since(start)

	results := make([]*viewplan.PlanResult, len(ops))
	errs := make([]error, len(ops))
	alloc := allocDelta(func() {
		cpu0, t0 := selfCPU(), time.Now()
		for i, op := range ops {
			s := time.Now()
			results[i], errs[i] = viewplan.PlanQuery(op.db, op.inst.Query, op.inst.Views, op.req)
			res.lat = append(res.lat, time.Since(s))
		}
		res.wall, res.cpu = time.Since(t0), selfCPU()-cpu0
	})
	e.layers.add("alloc.bytes", float64(alloc))

	out := newDigest()
	for i, op := range ops {
		r, err := results[i], errs[i]
		if err == nil {
			err = checkPlan(op, r)
		}
		if err != nil {
			res.fail("plan-cold", i, err)
			continue
		}
		out.answer(r.Answer)
		if round == 0 {
			e.exactCounts(float64(r.Cost), r.ExecStats)
		}
	}
	res.digest = out.sum()
	return res, nil
}

// exactCounts books the chosen plan's cost and its execution's peak of
// resident rows. Only round 0 is booked: its ops depend on the seed
// alone, so the means do not move with the run length or the machine.
func (e *env) exactCounts(planCost float64, stats *viewplan.ExecStats) {
	e.layers.add("plan.cost", planCost)
	e.layers.add("exec.peak_rows", float64(stats.PeakResidentRows))
	e.layers.add("exec.ops", 1)
}

// checkPlan verifies one PlanQuery result against the base relations
// and the definition of an equivalent rewriting.
func checkPlan(op planOp, r *viewplan.PlanResult) error {
	if r == nil || r.Plan == nil || r.ExecStats == nil {
		return fmt.Errorf("no executed plan for %s", op.inst.Query)
	}
	want, err := op.db.Evaluate(op.inst.Query)
	if err != nil {
		return err
	}
	if err := checkAnswer(r.Answer, want); err != nil {
		return err
	}
	return checkRewritings([]*viewplan.Query{r.Rewriting}, op.inst.Query, op.inst.Views)
}

// replayPlanCold walks PlanQuery's pipeline by hand, one span per call
// into a layer: rewriting generation, join ordering of every candidate
// under one IR cache, filter selection, execution.
func replayPlanCold(e *env, round int, log *spanLog) error {
	rng := e.rng(round)
	ops, err := e.buildPlanOps(rng, planColdClasses(rng), log, nil)
	if err != nil {
		return err
	}
	for i, op := range ops {
		q, vs, db := op.inst.Query, op.inst.Views, op.db
		tr := viewplan.NewTracer()
		db.SetTracer(tr)
		db.SetIRCache(viewplan.NewIRCache())
		var (
			err  error
			res  *viewplan.Result
			best *viewplan.Plan
			rw   *viewplan.Query
		)
		id := log.begin("op", i)
		e.layers.addDur("corecover.star", log.timed("corecover.star", i, func() {
			res, err = viewplan.FindMinimalRewritingsWith(q, vs, viewplan.Options{MaxRewritings: op.req.MaxRewritings, Tracer: tr})
		}))
		if err != nil {
			return err
		}
		order := log.timed("cost.order", i, func() {
			for _, p := range res.Rewritings {
				var plan *viewplan.Plan
				log.timed("cost.best_plan", i, func() {
					if op.req.Model == viewplan.M3 {
						plan, err = viewplan.BestPlanM3(db, p, viewplan.RenamingHeuristic, q, vs)
					} else {
						plan, err = viewplan.BestPlanM2(db, p)
					}
				})
				if err != nil {
					return
				}
				if best == nil || plan.Cost < best.Cost {
					best, rw = plan, p
				}
			}
		})
		if err != nil {
			return err
		}
		if best == nil {
			return fmt.Errorf("replay: no candidate for %s", q)
		}
		if op.req.Model != viewplan.M3 {
			var candidates []viewplan.ViewTuple
			for _, fc := range res.FilterClasses() {
				candidates = append(candidates, fc.Members...)
			}
			if len(candidates) > 0 {
				e.layers.addDur("cost.filters", log.timed("cost.filters", i, func() {
					var fr *viewplan.FilterResult
					if fr, err = viewplan.ImproveWithFilters(db, rw, q, vs, candidates); err == nil && fr.Plan.Cost < best.Cost {
						best = fr.Plan
					}
				}))
				if err != nil {
					return err
				}
			}
		}
		var stats viewplan.ExecStats
		exec := log.timed("cost.execute", i, func() { _, stats, err = viewplan.ExecutePlan(db, best, viewplan.ExecOptions{}) })
		if err != nil {
			return err
		}
		e.replayed(log, id)
		e.layers.add("corecover.star.n", 1)
		e.layers.add("cost.ops", 1)
		e.layers.add("cost.candidates", float64(len(res.Rewritings)))
		e.layers.addDur("cost.order", order)
		e.layers.addDur("cost.order."+op.class, order)
		e.layers.add("ops."+op.class, 1)
		e.execStats(exec, stats)
		e.absorb(tr.Snapshot())
		e.probeQuery(log, i, q, vs)
	}
	return nil
}

// replayed closes a replayed op's span and books its wall time and the
// part of it the stage spans under it cover.
func (e *env) replayed(log *spanLog, id int) {
	wall := log.end(id)
	e.layers.addDur("replay.wall", wall)
	e.layers.addDur("replay.stages", log.spans[id].child)
	e.layers.add("replay.ops", 1)
	e.replayLat = append(e.replayLat, wall)
}

func (e *env) execStats(d time.Duration, stats viewplan.ExecStats) {
	e.layers.addDur("cost.execute", d)
	e.layers.add("cost.execute.n", 1)
	e.layers.add("engine.peak_rows", float64(stats.PeakResidentRows))
}

// absorb books the counters and the phase self-times of one traced
// planning run.
func (e *env) absorb(snap *viewplan.PlanningStats) {
	e.layers.add("runs", 1)
	for name, v := range snap.Counters {
		e.layers.add("ctr."+name, float64(v))
	}
	var walk func(ps []viewplan.PhaseStats, parent string)
	walk = func(ps []viewplan.PhaseStats, parent string) {
		for _, p := range ps {
			name := p.Phase
			if name == "parallel-fanout" {
				// The fan-out span only waits for its workers; the wait
				// belongs to the phase that fanned out.
				name = parent
			}
			e.layers.add("phase."+name, float64(p.SelfNanos))
			walk(p.Children, name)
		}
	}
	walk(snap.Phases, "")
}

// probeQuery times the containment and views layers' own entry points
// on the op's query, outside the op's span.
func (e *env) probeQuery(log *spanLog, op int, q *viewplan.Query, vs *viewplan.ViewSet) {
	e.layers.addDur("containment.minimize", log.timed("containment.minimize", op, func() { viewplan.Minimize(q) }))
	var tuples int
	e.layers.addDur("views.tuples", log.timed("views.tuples", op, func() { tuples = len(viewplan.ViewTuples(q, vs)) }))
	e.layers.add("views.tuples.count", float64(tuples))
	e.layers.add("probe.ops", 1)
}

// ---- rewrite-paper ----

// rewriteOp is one instance of the paper's own experiment (Figs. 6-9 at
// 1000 views): generate the GMRs, then the CoreCover* space.
type rewriteOp struct {
	inst *workload.Instance
}

const rewriteCap = 1000

// Round sizes are variables so that the smoke test can shrink them.
var (
	rewriteStars  = 8  // per round; ~3x a chain op, so they are the p90 mode
	rewriteChains = 24 // per round; the p50 mode
)

func buildRewriteOps(rng *rand.Rand, in *digest) ([]rewriteOp, error) {
	n := rewriteStars + rewriteChains
	shapes := make([]workload.Shape, n)
	for i := range shapes {
		if i < rewriteStars {
			shapes[i] = workload.Star
		} else {
			shapes[i] = workload.Chain
		}
	}
	rng.Shuffle(n, func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })
	ops := make([]rewriteOp, n)
	for i, shape := range shapes {
		inst, err := genInstance(rng, workload.Config{Shape: shape, QuerySubgoals: 8, NumViews: 1000, Nondistinguished: i % 2})
		if err != nil {
			return nil, err
		}
		in.instance(inst)
		ops[i] = rewriteOp{inst: inst}
	}
	return ops, nil
}

func runRewritePaper(e *env, round int) (*roundResult, error) {
	res := &roundResult{}
	start := time.Now()
	ops, err := buildRewriteOps(e.rng(round), nil)
	if err != nil {
		return nil, err
	}
	if round == 0 {
		warm, err := buildRewriteOps(e.rng(-1), nil)
		if err != nil {
			return nil, err
		}
		for _, op := range warm[:min(warmups, len(warm))] {
			if _, err := viewplan.FindGMRs(op.inst.Query, op.inst.Views); err != nil {
				return nil, err
			}
		}
	}
	res.setup = time.Since(start)

	type output struct {
		gmr, star *viewplan.Result
		err       error
	}
	outs := make([]output, len(ops))
	alloc := allocDelta(func() {
		cpu0, t0 := selfCPU(), time.Now()
		for i, op := range ops {
			s := time.Now()
			o := &outs[i]
			if o.gmr, o.err = viewplan.FindGMRs(op.inst.Query, op.inst.Views); o.err == nil {
				o.star, o.err = viewplan.FindMinimalRewritingsWith(op.inst.Query, op.inst.Views, viewplan.Options{MaxRewritings: rewriteCap})
			}
			res.lat = append(res.lat, time.Since(s))
		}
		res.wall, res.cpu = time.Since(t0), selfCPU()-cpu0
	})
	e.layers.add("alloc.bytes", float64(alloc))

	out := newDigest()
	for i, op := range ops {
		o := outs[i]
		err := o.err
		if err == nil {
			err = checkRewritings(o.gmr.Rewritings, op.inst.Query, op.inst.Views)
		}
		if err == nil {
			err = checkRewritings(o.star.Rewritings, op.inst.Query, op.inst.Views)
		}
		if err != nil {
			res.fail("rewrite-paper", i, err)
			continue
		}
		out.queries(o.gmr.Rewritings)
		// Which rewritings a capped run returns depends on enumeration
		// order; only complete sets are pinned.
		if len(o.star.Rewritings) < rewriteCap {
			out.queries(o.star.Rewritings)
		}
	}
	res.digest = out.sum()
	return res, nil
}

func replayRewritePaper(e *env, round int, log *spanLog) error {
	ops, err := buildRewriteOps(e.rng(round), nil)
	if err != nil {
		return err
	}
	for i, op := range ops {
		q, vs := op.inst.Query, op.inst.Views
		var (
			err       error
			gmr, star *viewplan.Result
		)
		tr := viewplan.NewTracer()
		id := log.begin("op", i)
		e.layers.addDur("corecover.gmr", log.timed("corecover.gmr", i, func() { gmr, err = viewplan.FindGMRs(q, vs) }))
		if err != nil {
			return err
		}
		e.layers.addDur("corecover.star", log.timed("corecover.star", i, func() {
			star, err = viewplan.FindMinimalRewritingsWith(q, vs, viewplan.Options{MaxRewritings: rewriteCap, Tracer: tr})
		}))
		if err != nil {
			return err
		}
		e.replayed(log, id)
		e.layers.add("corecover.gmr.n", 1)
		e.layers.add("corecover.star.n", 1)
		e.absorb(tr.Snapshot())
		e.render(log, i, append(gmr.Rewritings, star.Rewritings...))
		e.probeQuery(log, i, q, vs)
	}
	return nil
}

// render times Query.String over every rewriting of a response.
func (e *env) render(log *spanLog, op int, rewritings []*viewplan.Query) {
	e.layers.addDur("cq.render", log.timed("cq.render", op, func() {
		for _, p := range rewritings {
			_ = p.String()
		}
	}))
	e.layers.add("cq.render.n", 1)
}

// ---- exec-blowup ----

// execDB is one blow-up chain database with its plan, built once per
// round and executed many times.
type execDB struct {
	db   *viewplan.Database
	q    *viewplan.Query
	plan *viewplan.Plan
}

// execShapes are the (Keys, FanOut) pairs of a round's five databases;
// the seed moves each Keys by up to 10 % either way. An odd count puts
// op_p50_ms inside the middle database's mode and op_p90_ms inside the
// slowest one's, not on an edge between two.
var execShapes = [][2]int{{6000, 8}, {8000, 6}, {9000, 5}, {10000, 4}, {12000, 2}}

const (
	identityViews  = "v1(A, B) :- e1(A, B).\nv2(A, B) :- e2(A, B).\nv3(A, B) :- e3(A, B)."
	execChainHeads = 8
)

var execOpsPerDB = 8

func (e *env) buildExecDBs(rng *rand.Rand, log *spanLog, in *digest) ([]execDB, error) {
	vs, err := viewplan.ParseViews(identityViews)
	if err != nil {
		return nil, err
	}
	dbs := make([]execDB, len(execShapes))
	for i, shape := range execShapes {
		cfg := workload.ExecConfig{Keys: int(float64(shape[0]) * (0.9 + 0.2*rng.Float64())), FanOut: shape[1], Heads: execChainHeads}
		in.line(fmt.Sprintf("%+v", cfg))
		d := execDB{db: viewplan.NewDatabase()}
		if d.q, err = workload.ExecChain(d.db, cfg); err != nil {
			return nil, err
		}
		if err := e.materialize(log, i, d.db, vs); err != nil {
			return nil, err
		}
		gmr, err := viewplan.FindGMRs(d.q, vs)
		if err != nil {
			return nil, err
		}
		if len(gmr.Rewritings) != 1 {
			return nil, fmt.Errorf("exec-blowup: %d GMRs over identity views, want 1", len(gmr.Rewritings))
		}
		// The rewriting's own order is the chain order, the one whose
		// intermediates blow up; no optimizer runs.
		if d.plan, err = cost.PlanM2(d.db, gmr.Rewritings[0], nil); err != nil {
			return nil, err
		}
		dbs[i] = d
	}
	return dbs, nil
}

func runExecBlowup(e *env, round int) (*roundResult, error) {
	res := &roundResult{}
	start := time.Now()
	dbs, err := e.buildExecDBs(e.rng(round), nil, nil)
	if err != nil {
		return nil, err
	}
	if round == 0 {
		for i := 0; i < warmups; i++ {
			if _, _, err := viewplan.ExecutePlan(dbs[i%len(dbs)].db, dbs[i%len(dbs)].plan, viewplan.ExecOptions{}); err != nil {
				return nil, err
			}
		}
	}
	res.setup = time.Since(start)

	n := execOpsPerDB * len(dbs)
	answers := make([]*viewplan.Relation, n)
	stats := make([]viewplan.ExecStats, n)
	errs := make([]error, n)
	alloc := allocDelta(func() {
		cpu0, t0 := selfCPU(), time.Now()
		for i := 0; i < n; i++ {
			d := dbs[i%len(dbs)]
			s := time.Now()
			answers[i], stats[i], errs[i] = viewplan.ExecutePlan(d.db, d.plan, viewplan.ExecOptions{})
			res.lat = append(res.lat, time.Since(s))
		}
		res.wall, res.cpu = time.Since(t0), selfCPU()-cpu0
	})
	e.layers.add("alloc.bytes", float64(alloc))

	want := make([]*viewplan.Relation, len(dbs))
	for i, d := range dbs {
		if want[i], err = d.db.Evaluate(d.q); err != nil {
			return nil, err
		}
	}
	out := newDigest()
	for i := 0; i < n; i++ {
		err := errs[i]
		if err == nil {
			err = checkAnswer(answers[i], want[i%len(dbs)])
		}
		if err != nil {
			res.fail("exec-blowup", i, err)
			continue
		}
		if i < len(dbs) {
			out.answer(answers[i])
		}
		if round == 0 {
			e.exactCounts(0, &stats[i])
		}
	}
	res.digest = out.sum()
	return res, nil
}

func replayExecBlowup(e *env, round int, log *spanLog) error {
	dbs, err := e.buildExecDBs(e.rng(round), log, nil)
	if err != nil {
		return err
	}
	for i := 0; i < execOpsPerDB*len(dbs); i++ {
		d := dbs[i%len(dbs)]
		tr := viewplan.NewTracer()
		d.db.SetTracer(tr)
		var (
			err   error
			stats viewplan.ExecStats
		)
		id := log.begin("op", i)
		exec := log.timed("cost.execute", i, func() { _, stats, err = viewplan.ExecutePlan(d.db, d.plan, viewplan.ExecOptions{}) })
		if err != nil {
			return err
		}
		e.replayed(log, id)
		e.execStats(exec, stats)
		e.absorb(tr.Snapshot())
	}
	return nil
}

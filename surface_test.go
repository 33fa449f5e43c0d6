package viewplan_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"viewplan"
	"viewplan/internal/corecover"
	"viewplan/internal/cost"
	"viewplan/internal/cq"
	"viewplan/internal/engine"
	"viewplan/internal/service"
	"viewplan/internal/workload"
)

// The benchmark module (bench/, its own go.mod) compiles against a frozen
// slice of this module — bench/README.md, "Frozen import surface" — and
// the root `go test ./...` never builds it. This file is that slice as a
// compile-time table: every function at the signature the benchmark calls
// it with, every struct field it sets or reads by name. Renaming,
// removing or re-typing any of them fails tier-1 here, instead of at
// benchmark time.
var (
	// Root facade: functions.
	_ func(*viewplan.Database, *viewplan.Query, *viewplan.ViewSet, viewplan.PlanRequest) (*viewplan.PlanResult, error)                    = viewplan.PlanQuery
	_ func(*viewplan.Query, *viewplan.ViewSet) (*viewplan.Result, error)                                                                  = viewplan.FindGMRs
	_ func(*viewplan.Query, *viewplan.ViewSet, viewplan.Options) (*viewplan.Result, error)                                                = viewplan.FindGMRsWith
	_ func(*viewplan.Query, *viewplan.ViewSet, viewplan.Options) (*viewplan.Result, error)                                                = viewplan.FindMinimalRewritingsWith
	_ func(*viewplan.Query, *viewplan.ViewSet) (bool, error)                                                                              = viewplan.HasRewriting
	_ func(p, q *viewplan.Query, vs *viewplan.ViewSet) bool                                                                               = viewplan.IsEquivalentRewriting
	_ func(*viewplan.Query) *viewplan.Query                                                                                               = viewplan.Minimize
	_ func(*viewplan.Query, *viewplan.ViewSet) []viewplan.ViewTuple                                                                       = viewplan.ViewTuples
	_ func(*viewplan.Database, *viewplan.Query) (*viewplan.Plan, error)                                                                   = viewplan.BestPlanM2
	_ func(*viewplan.Database, *viewplan.Query, viewplan.DropStrategy, *viewplan.Query, *viewplan.ViewSet) (*viewplan.Plan, error)        = viewplan.BestPlanM3
	_ func(*viewplan.Database, *viewplan.Query, *viewplan.Query, *viewplan.ViewSet, []viewplan.ViewTuple) (*viewplan.FilterResult, error) = viewplan.ImproveWithFilters
	_ func(*viewplan.Database, *viewplan.Plan, viewplan.ExecOptions) (*viewplan.Relation, viewplan.ExecStats, error)                      = viewplan.ExecutePlan
	_ func(*viewplan.ViewSet, viewplan.Options) (*viewplan.ViewCatalog, error)                                                            = viewplan.CompileViews
	_ func(int) *viewplan.PlanCache                                                                                                       = viewplan.NewPlanCache
	_ func() *viewplan.IRCache                                                                                                            = viewplan.NewIRCache
	_ func() *viewplan.Tracer                                                                                                             = viewplan.NewTracer
	_ func() *viewplan.Database                                                                                                           = viewplan.NewDatabase
	_ func(string) (*viewplan.Query, error)                                                                                               = viewplan.ParseQuery
	_ func(string) (*viewplan.ViewSet, error)                                                                                             = viewplan.ParseViews

	// Root facade: the fields the benchmark keys struct literals by.
	_ = viewplan.PlanRequest{Model: viewplan.M2, MaxRewritings: 0, Execute: false}
	_ = viewplan.Options{MaxRewritings: 0, Tracer: (*viewplan.Tracer)(nil), Catalog: (*viewplan.ViewCatalog)(nil), Cache: (*viewplan.PlanCache)(nil)}
	_ = viewplan.ExecOptions{}

	// Root facade: methods and fields read off results.
	_ func(*viewplan.Database, *viewplan.Tracer)                            = (*viewplan.Database).SetTracer
	_ func(*viewplan.Database, *viewplan.IRCache)                           = (*viewplan.Database).SetIRCache
	_ func(*viewplan.Database, *viewplan.ViewSet) error                     = (*viewplan.Database).MaterializeViews
	_ func(*viewplan.Database, *viewplan.Query) (*viewplan.Relation, error) = (*viewplan.Database).Evaluate
	_ func(*viewplan.Database, string) error                                = (*viewplan.Database).LoadFacts
	_ func(*viewplan.Database, string) *viewplan.Relation                   = (*viewplan.Database).Relation
	_ func(*viewplan.Relation) []engine.Tuple                               = (*viewplan.Relation).SortedRows
	_ func(*viewplan.Result) []corecover.TupleClass                         = (*viewplan.Result).FilterClasses
	_ []*viewplan.Query                                                     = viewplan.Result{}.Rewritings
	_ []viewplan.PhaseStats                                                 = viewplan.PlanningStats{}.Phases
	_ map[string]int64                                                      = viewplan.PlanningStats{}.Counters

	// internal/workload.
	_ func(workload.Config) (*workload.Instance, error)              = workload.Generate
	_ func(int, int64) (*workload.Instance, error)                   = workload.ScaleCatalog
	_ func(int) int                                                  = workload.ScaleVocab
	_ func(*engine.Database, workload.ExecConfig) (*cq.Query, error) = workload.ExecChain

	// internal/service.
	_ func(service.Config) (*service.Server, error)                             = service.New
	_                                                                           = service.Config{Views: (*viewplan.ViewSet)(nil), CacheSize: 0}
	_ func(*service.Server, service.PlanRequest) (*service.PlanResponse, error) = (*service.Server).Plan
	_ func(*service.Server, string) (*service.ViewsResponse, error)             = (*service.Server).AddView
	_ func(*service.Server, string) (*service.ViewsResponse, error)             = (*service.Server).RemoveView

	// The remaining internals.
	_ func(*cq.Query) (string, bool)                               = cq.ExactCanonicalKey
	_ func(*engine.Database, *cq.Query, []int) (*cost.Plan, error) = cost.PlanM2
	_ func(int64, int) *engine.DataGen                             = engine.NewDataGen
)

// TestPlanserveFlagSurface pins the three planserve flags the benchmark
// starts its server child with.
func TestPlanserveFlagSurface(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "planserve")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/planserve").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/planserve: %v\n%s", err, out)
	}
	// -h prints the flag set and exits; the exit status is not the point.
	usage, _ := exec.Command(bin, "-h").CombinedOutput()
	for _, flag := range []string{"-views", "-addr", "-cache"} {
		if !strings.Contains(string(usage), "  "+flag+" ") {
			t.Errorf("planserve -h does not list %s:\n%s", flag, usage)
		}
	}
}

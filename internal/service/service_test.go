// End-to-end HTTP contract of the planning service: plan answers,
// cache outcomes, view mutations with generation bumps, metrics, and
// error shapes — all over a real httptest server.
package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"viewplan"
	"viewplan/internal/service"
)

func newTestServer(t *testing.T) (*service.Server, *httptest.Server) {
	t.Helper()
	vs, err := viewplan.ParseViews(`
		v1(X, Y) :- e1(X, Y).
		v2(X, Y, Z) :- e1(X, Y), e2(X, Z).
		v3(X, Z) :- e2(X, Z).
	`)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := service.New(service.Config{Views: vs, CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// post sends a JSON body and decodes a JSON response, failing on a
// non-200 status.
func post(t *testing.T, url string, body string, into any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %d: %s", url, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, into); err != nil {
		t.Fatalf("POST %s: bad response %q: %v", url, data, err)
	}
}

func TestServiceEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)

	// A plannable query: cold first, then a cache hit.
	var plan service.PlanResponse
	post(t, ts.URL+"/plan", `{"query": "q(X, Y, Z) :- e1(X, Y), e2(X, Z)"}`, &plan)
	if len(plan.Rewritings) == 0 {
		t.Fatalf("no rewritings: %+v", plan)
	}
	if plan.CacheHit {
		t.Fatal("first request reported a cache hit")
	}
	first := plan.Rewritings

	post(t, ts.URL+"/plan", `{"query": "q(A, B, C) :- e1(A, B), e2(A, C)"}`, &plan)
	if !plan.CacheHit {
		t.Fatal("alpha-renamed repeat did not hit the cache")
	}
	if len(plan.Rewritings) != len(first) {
		t.Fatalf("hit returned %d rewritings, cold returned %d", len(plan.Rewritings), len(first))
	}
	for _, p := range plan.Rewritings {
		pq, err := viewplan.ParseQuery(p)
		if err != nil {
			t.Fatalf("unparseable rewriting %q: %v", p, err)
		}
		if pq.Head.Args[0] != viewplan.Var("A") {
			t.Fatalf("hit not rebased onto the arrival's variables: %s", p)
		}
	}

	// The view world: list, add, plan against the new generation, remove.
	var world service.ViewsResponse
	resp, err := http.Get(ts.URL + "/views")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(data, &world); err != nil {
		t.Fatalf("GET /views: %q: %v", data, err)
	}
	if len(world.Views) != 3 {
		t.Fatalf("GET /views: %+v", world)
	}
	gen0 := world.Generation

	post(t, ts.URL+"/views/add", `{"view": "v4(X, Y) :- e3(X, Y)"}`, &world)
	if len(world.Views) != 4 || world.Generation <= gen0 {
		t.Fatalf("add: %+v (was generation %d)", world, gen0)
	}
	post(t, ts.URL+"/plan", `{"query": "q(X, Y) :- e3(X, Y)"}`, &plan)
	if plan.Generation != world.Generation {
		t.Fatalf("planned against generation %d, world is at %d", plan.Generation, world.Generation)
	}
	if len(plan.Rewritings) != 1 {
		t.Fatalf("v4 rewriting missing: %+v", plan)
	}
	post(t, ts.URL+"/views/remove", `{"name": "v4"}`, &world)
	if len(world.Views) != 3 {
		t.Fatalf("remove: %+v", world)
	}
	post(t, ts.URL+"/plan", `{"query": "q(X, Y) :- e3(X, Y)"}`, &plan)
	if len(plan.Rewritings) != 0 || plan.CacheHit {
		t.Fatalf("stale answer after remove: %+v", plan)
	}

	// Metrics: a JSON registry snapshot that saw every /plan request.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap map[string]any
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("GET /metrics: %q: %v", data, err)
	}
	if req, _ := snap["requests"].(float64); req != 4 {
		t.Fatalf("metrics requests = %v, want 4", snap["requests"])
	}

	// Error shapes: unparseable bodies and queries are 400s.
	for _, bad := range []struct{ path, body string }{
		{"/plan", `{"query": "not a query"`},
		{"/plan", `{"query": "not a query"}`},
		{"/plan", `{"query": "q(X) :- e1(X, Y)", "unknown_field": 1}`},
		{"/views/add", `{"view": "v1(X) :- e1(X, Y)"}`}, // duplicate name
		{"/views/remove", `{"name": "nope"}`},
	} {
		resp, err := http.Post(ts.URL+bad.path, "application/json", bytes.NewReader([]byte(bad.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s %s: status %d, want 400", bad.path, bad.body, resp.StatusCode)
		}
	}
}

// TestServiceStarMatchesDirectPlanning pins the service answer to the
// library answer on a CoreCover* request.
func TestServiceStarMatchesDirectPlanning(t *testing.T) {
	srv, ts := newTestServer(t)
	q := "q(X, Y, Z) :- e1(X, Y), e2(X, Z)"
	var plan service.PlanResponse
	post(t, ts.URL+"/plan", fmt.Sprintf(`{"query": %q, "star": true}`, q), &plan)
	want, err := viewplan.FindMinimalRewritingsWith(viewplan.MustParseQuery(q), srv.Catalog().Views(), viewplan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Rewritings) != len(want.Rewritings) {
		t.Fatalf("service found %d rewritings, library found %d", len(plan.Rewritings), len(want.Rewritings))
	}
	for i := range want.Rewritings {
		if plan.Rewritings[i] != want.Rewritings[i].String() {
			t.Fatalf("rewriting %d: service %q, library %q", i, plan.Rewritings[i], want.Rewritings[i])
		}
	}
}

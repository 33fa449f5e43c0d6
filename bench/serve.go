package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"viewplan"
	"viewplan/internal/cq"
	"viewplan/internal/service"
	"viewplan/internal/workload"
)

// ---- the planserve child ----

// buildPlanserve compiles cmd/planserve from the checkout the benchmark
// sits in; the go build cache makes a rebuild of unchanged source cheap.
func buildPlanserve(e *env) error {
	cmd := exec.Command("go", "build", "-o", filepath.Join(e.outDir, "planserve"), "./cmd/planserve")
	cmd.Dir = e.root // the module this one's replace directive points at
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/planserve: %v\n%s", err, out)
	}
	return nil
}

// server is a running planserve child.
type server struct {
	cmd  *exec.Cmd
	base string        // http://127.0.0.1:port
	done chan struct{} // closed once the child has been waited for
}

// startServer writes the views to a file and starts planserve on a free
// loopback port, returning once the port accepts connections (planserve
// listens only after compiling its catalog).
func startServer(e *env, vs *viewplan.ViewSet, cache int) (*server, error) {
	bin := filepath.Join(e.outDir, "planserve")
	var src strings.Builder
	for _, v := range vs.Views {
		src.WriteString(v.String())
		src.WriteString(".\n")
	}
	viewsFile := filepath.Join(e.outDir, fmt.Sprintf("views-%d.dl", os.Getpid()))
	if err := os.WriteFile(viewsFile, []byte(src.String()), 0o644); err != nil {
		return nil, err
	}
	defer os.Remove(viewsFile) // the child has read it once the port is open
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		// Probe for a free port, release it, hand it to the child. Another
		// process can take it in between; the child then exits and we retry.
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := l.Addr().String()
		l.Close()
		s := &server{
			cmd:  exec.Command(bin, "-views", viewsFile, "-addr", addr, "-cache", strconv.Itoa(cache)),
			base: "http://" + addr,
			done: make(chan struct{}),
		}
		s.cmd.Stderr = os.Stderr
		if err := s.cmd.Start(); err != nil {
			return nil, err
		}
		go func() {
			s.cmd.Wait()
			close(s.done)
		}()
		if lastErr = s.awaitReady(addr); lastErr == nil {
			return s, nil
		}
		s.stop()
	}
	return nil, fmt.Errorf("planserve did not come up: %w", lastErr)
}

func (s *server) awaitReady(addr string) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return fmt.Errorf("planserve exited before listening on %s", addr)
		default:
		}
		if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			c.Close()
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("planserve not listening on %s after 60 s", addr)
}

// stop kills the child and waits until it has ended.
func (s *server) stop() {
	s.cmd.Process.Kill()
	<-s.done
}

// client is one closed-loop HTTP client on one keep-alive connection.
type client struct {
	http *http.Client
	buf  bytes.Buffer
}

func newClient() *client {
	return &client{http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 60 * time.Second}}
}

// post sends one JSON request and returns the response body, valid
// until the next call. Anything but a 200 is an error.
func (c *client) post(url string, body []byte) ([]byte, error) {
	resp, err := c.http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	return c.buf.Bytes(), nil
}

func (c *client) close() { c.http.CloseIdleConnections() }

func planBody(query string) []byte {
	b, err := json.Marshal(service.PlanRequest{Query: query})
	if err != nil {
		panic(err) // a struct of a string and a bool always marshals
	}
	return b
}

// The response fields that differ between two answers to one query come
// after the rewritings: cache_hit, cache_bypass, latency_ns, stats.
var (
	cacheHitKey  = []byte(`"cache_hit": `)
	latencyNsKey = []byte(`"latency_ns": `)
)

// splitBody returns the part of a /plan response that is the answer
// (query, rewritings, generation), the cache_hit flag and latency_ns.
func splitBody(body []byte) (answer []byte, hit bool, latency time.Duration, err error) {
	i := bytes.Index(body, cacheHitKey)
	j := bytes.Index(body, latencyNsKey)
	if i < 0 || j < 0 {
		return nil, false, 0, fmt.Errorf("response without cache_hit or latency_ns")
	}
	hit = bytes.HasPrefix(body[i+len(cacheHitKey):], []byte("true"))
	digits := body[j+len(latencyNsKey):]
	if k := bytes.IndexAny(digits, ",\n"); k >= 0 {
		digits = digits[:k]
	}
	ns, err := strconv.ParseInt(string(digits), 10, 64)
	return body[:i], hit, time.Duration(ns), err
}

// checkPlanResponse decodes a /plan response body and verifies that
// every rewriting in it is an equivalent rewriting over vs.
func checkPlanResponse(body []byte, vs *viewplan.ViewSet, out *digest) error {
	var resp service.PlanResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	q, err := viewplan.ParseQuery(resp.Query)
	if err != nil {
		return err
	}
	rewritings := make([]*viewplan.Query, len(resp.Rewritings))
	for i, s := range resp.Rewritings {
		if rewritings[i], err = viewplan.ParseQuery(s); err != nil {
			return err
		}
	}
	if err := checkRewritings(rewritings, q, vs); err != nil {
		return err
	}
	out.set(resp.Rewritings)
	return nil
}

// coveredRelations lists the base relations e<i> that some view stores
// whole (a one-subgoal view keeps every variable distinguished). A star
// query over such relations always has a rewriting, so no op can fail
// for want of one.
func coveredRelations(vs *viewplan.ViewSet) []int {
	seen := map[int]bool{}
	var rels []int
	for _, v := range vs.Views {
		if len(v.Def.Body) != 1 {
			continue
		}
		if i, err := strconv.Atoi(strings.TrimPrefix(v.Def.Body[0].Pred, "e")); err == nil && !seen[i] {
			seen[i] = true
			rels = append(rels, i)
		}
	}
	sort.Ints(rels)
	return rels
}

// starQueries draws n distinct star queries over k-subsets of the given
// relations, the query family of cmd/servebench: distinct subsets have
// distinct predicate sets, so no two share a plan-cache key.
func starQueries(rng *rand.Rand, rels []int, k, n int) []string {
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		pick := rng.Perm(len(rels))[:k]
		sort.Ints(pick) // two orders of one subset are the same query to the cache
		var head, body strings.Builder
		head.WriteString("q(X0")
		for i, p := range pick {
			r := rels[p]
			fmt.Fprintf(&head, ", X%d", r)
			if i > 0 {
				body.WriteString(", ")
			}
			fmt.Fprintf(&body, "e%d(X0, X%d)", r, r)
		}
		q := head.String() + ") :- " + body.String()
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

// counters fetches the child's registry counters.
func (s *server) counters() (map[string]float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]float64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return snap.Counters, nil
}

// usage books what the child used during the round's timed region.
func (s *server) usage(e *env, res *roundResult, cpu0 time.Duration) error {
	pid := s.cmd.Process.Pid
	cpu1, err := procCPU(pid)
	if err != nil {
		return err
	}
	res.cpu = cpu1 - cpu0
	if res.rssKB, err = peakRSSKB(strconv.Itoa(pid)); err != nil {
		return err
	}
	ctr, err := s.counters()
	if err != nil {
		return err
	}
	e.layers.add("cache.evictions", ctr["plan_cache_evictions"])
	e.layers.add("cache.rounds", 1)
	return nil
}

// ---- serve-warm ----

const (
	warmViews      = 200
	warmCache      = 4096
	warmHotSet     = 64
	serveSubgoals  = 8
	primingPasses  = 2
	churnViews     = 5000
	churnCache     = 256
	churnWindow    = 200 // a re-ask repeats one of the last 200 requests
	churnReaskProb = 0.25
	mutateEvery    = 100
)

// Round sizes; the smoke test shrinks them.
var (
	warmRequests  = 4000
	churnRequests = 500
)

// warmInputs generates a serve-warm round: the catalog and the hot set.
func warmInputs(rng *rand.Rand, in *digest) (*workload.Instance, []string, error) {
	inst, err := workload.ScaleCatalog(warmViews, rng.Int63())
	if err != nil {
		return nil, nil, err
	}
	hot := starQueries(rng, coveredRelations(inst.Views), serveSubgoals, warmHotSet)
	in.instance(inst)
	for _, q := range hot {
		in.line(q)
	}
	return inst, hot, nil
}

func runServeWarm(e *env, round int) (*roundResult, error) {
	res := &roundResult{}
	start := time.Now()
	inst, hot, err := warmInputs(e.rng(round), nil)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(e, inst.Views, warmCache)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	c := newClient()
	defer c.close()
	bodies := make([][]byte, len(hot))
	cold := make([][]byte, len(hot))       // the first, cold response to each query
	coldAnswer := make([][]byte, len(hot)) // its answer part
	for pass := 0; pass < primingPasses; pass++ {
		for i, q := range hot {
			bodies[i] = planBody(q)
			resp, err := c.post(srv.base+"/plan", bodies[i])
			if err == nil && pass == 0 {
				cold[i] = append([]byte(nil), resp...)
				coldAnswer[i], _, _, err = splitBody(cold[i])
			}
			if err != nil {
				return nil, err
			}
		}
	}
	res.setup = time.Since(start)

	wrong := make([]bool, warmRequests) // ops whose answer was not the cold one
	cpu0, err := procCPU(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for i := 0; i < warmRequests; i++ {
		qi := i % len(hot)
		s := time.Now()
		body, err := c.post(srv.base+"/plan", bodies[qi])
		rtt := time.Since(s)
		res.lat = append(res.lat, rtt)
		var answer []byte
		var hit bool
		var inside time.Duration
		if err == nil {
			answer, hit, inside, err = splitBody(body)
		}
		if err == nil && !bytes.Equal(answer, coldAnswer[qi]) {
			err = fmt.Errorf("answer to %q differs from the cold answer", hot[qi])
		}
		if err != nil {
			wrong[i] = true
			res.fail("serve-warm", i, err)
			continue
		}
		if hit {
			e.layers.add("cache.hits", 1)
		}
		e.layers.add("cache.asks", 1)
		e.layers.addDur("http.overhead", rtt-inside)
	}
	res.wall = time.Since(t0)
	if err := srv.usage(e, res, cpu0); err != nil {
		return nil, err
	}
	if e.trace {
		if err := e.twoClients(srv, bodies, coldAnswer); err != nil {
			return nil, err
		}
	}

	// Every other timed answer equalled a cold answer byte for byte, so
	// checking the cold answers checks them all; a wrong cold answer
	// fails every ask of its query.
	out := newDigest()
	for qi := range cold {
		err := checkPlanResponse(cold[qi], inst.Views, out)
		for i := qi; err != nil && i < warmRequests; i += len(hot) {
			if !wrong[i] {
				res.fail("serve-warm", i, err)
			}
		}
	}
	res.digest = out.sum()
	return res, nil
}

// twoClients replays the round's requests from two closed-loop clients
// at once, each on its own connection, against the same primed child:
// the plan cache's concurrent-read path. On two cores the two clients
// and the server are three busy parties and the figures spread too far to
// gate, so they are reported rows of a traced run. A wrong answer ends
// the run.
func (e *env) twoClients(srv *server, bodies, coldAnswer [][]byte) error {
	const clients = 2
	lats := make([][]time.Duration, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.close()
			for i := 0; i < warmRequests/clients && errs[k] == nil; i++ {
				qi := (i + k*len(bodies)/clients) % len(bodies)
				s := time.Now()
				body, err := c.post(srv.base+"/plan", bodies[qi])
				lats[k] = append(lats[k], time.Since(s))
				var answer []byte
				if err == nil {
					answer, _, _, err = splitBody(body)
				}
				if err == nil && !bytes.Equal(answer, coldAnswer[qi]) {
					err = fmt.Errorf("serve-warm, 2 clients: an answer differs from the cold answer")
				}
				errs[k] = err
			}
		}()
	}
	wg.Wait()
	e.layers.addDur("two.wall", time.Since(t0))
	for k := range lats {
		if errs[k] != nil {
			return errs[k]
		}
		e.layers.add("two.ops", float64(len(lats[k])))
		e.twoLat = append(e.twoLat, lats[k]...)
	}
	return nil
}

// encodeResponse is the JSON encoding planserve applies to a response.
func encodeResponse(buf *bytes.Buffer, v any) error {
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// replayPlan is one /plan request replayed in-process: the service
// layer's Plan, then the response encoding, each under a span.
func (e *env) replayPlan(log *spanLog, srv *service.Server, op int, query string, buf *bytes.Buffer) (*service.PlanResponse, error) {
	var resp *service.PlanResponse
	var err error
	id := log.begin("op", op)
	plan := log.timed("service.plan", op, func() { resp, err = srv.Plan(service.PlanRequest{Query: query}) })
	if err != nil {
		return nil, err
	}
	encode := log.timed("service.encode", op, func() { err = encodeResponse(buf, resp) })
	if err != nil {
		return nil, err
	}
	e.replayed(log, id)
	kind := "miss"
	if resp.CacheHit {
		kind = "hit"
	}
	e.layers.addDur("service.plan."+kind, plan)
	e.layers.add("service.plan."+kind+".n", 1)
	e.layers.addDur("service.encode", encode)
	e.layers.add("service.bytes", float64(buf.Len()))
	e.layers.add("service.ops", 1)
	e.absorb(resp.Stats)

	// The cq layer's share of the request, on the request text.
	var q *viewplan.Query
	e.layers.addDur("cq.parse", log.timed("cq.parse", op, func() { q, err = viewplan.ParseQuery(query) }))
	if err != nil {
		return nil, err
	}
	e.layers.addDur("cq.canon_key", log.timed("cq.canon_key", op, func() { cq.ExactCanonicalKey(q) }))
	e.layers.add("cq.ops", 1)
	return resp, nil
}

// compiled times CompileViews on the round's catalog.
func (e *env) compiled(log *spanLog, vs *viewplan.ViewSet) (*viewplan.ViewCatalog, error) {
	var cat *viewplan.ViewCatalog
	var err error
	e.layers.addDur("corecover.compile", log.timed("corecover.compile", 0, func() { cat, err = viewplan.CompileViews(vs, viewplan.Options{}) }))
	e.layers.add("corecover.compile.n", 1)
	return cat, err
}

func replayServeWarm(e *env, round int, log *spanLog) error {
	inst, hot, err := warmInputs(e.rng(round), nil)
	if err != nil {
		return err
	}
	cat, err := e.compiled(log, inst.Views)
	if err != nil {
		return err
	}
	srv, err := service.New(service.Config{Views: inst.Views, CacheSize: warmCache})
	if err != nil {
		return err
	}
	// A plan cache of our own, primed, to time a bare cache hit in the
	// corecover layer without the service around it.
	cache := viewplan.NewPlanCache(warmCache)
	parsed := make([]*viewplan.Query, len(hot))
	for i, q := range hot {
		parsed[i] = viewplan.MustParseQuery(q)
		for pass := 0; pass < primingPasses; pass++ {
			if _, err := srv.Plan(service.PlanRequest{Query: q}); err != nil {
				return err
			}
		}
		if _, err := viewplan.FindGMRsWith(parsed[i], nil, viewplan.Options{Catalog: cat, Cache: cache}); err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	for i := 0; i < warmRequests; i++ {
		qi := i % len(hot)
		if _, err := e.replayPlan(log, srv, i, hot[qi], &buf); err != nil {
			return err
		}
		e.layers.addDur("corecover.cache_hit", log.timed("corecover.cache_hit", i, func() {
			_, err = viewplan.FindGMRsWith(parsed[qi], nil, viewplan.Options{Catalog: cat, Cache: cache})
		}))
		if err != nil {
			return err
		}
		e.layers.add("corecover.cache_hit.n", 1)
	}
	return nil
}

// ---- serve-churn ----

// churnStep is one /plan request of a churn round; after every
// mutateEvery-th one the client adds a view and removes it again.
type churnStep struct {
	query string
	body  []byte
}

type churnRound struct {
	inst  *workload.Instance
	steps []churnStep
	// adds[j] and removes[j] are the request bodies of the j-th mutation
	// pair; addDefs[j] and addNames[j] are the same view for the replay.
	adds, removes     [][]byte
	addDefs, addNames []string
}

func churnInputs(rng *rand.Rand, in *digest) (*churnRound, error) {
	inst, err := workload.ScaleCatalog(churnViews, rng.Int63())
	if err != nil {
		return nil, err
	}
	in.instance(inst)
	vocab := workload.ScaleVocab(churnViews)
	fresh := starQueries(rng, coveredRelations(inst.Views), serveSubgoals, churnRequests)
	r := &churnRound{inst: inst, steps: make([]churnStep, churnRequests)}
	for i := range r.steps {
		if i > 0 && rng.Float64() < churnReaskProb {
			r.steps[i] = r.steps[i-1-rng.Intn(min(i, churnWindow))]
		} else {
			r.steps[i] = churnStep{query: fresh[i], body: planBody(fresh[i])}
		}
		in.line(r.steps[i].query)
	}
	for j := 0; j < churnRequests/mutateEvery; j++ {
		a, b := 1+rng.Intn(vocab), 1+rng.Intn(vocab)
		name := fmt.Sprintf("benchview%d", j)
		def := fmt.Sprintf("%s(Y0, Y1, Y2) :- e%d(Y0, Y1), e%d(Y0, Y2)", name, a, b)
		in.line(def)
		add, _ := json.Marshal(map[string]string{"view": def})
		remove, _ := json.Marshal(map[string]string{"name": name})
		r.adds, r.removes = append(r.adds, add), append(r.removes, remove)
		r.addDefs, r.addNames = append(r.addDefs, def), append(r.addNames, name)
	}
	return r, nil
}

func runServeChurn(e *env, round int) (*roundResult, error) {
	res := &roundResult{}
	start := time.Now()
	r, err := churnInputs(e.rng(round), nil)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(e, r.inst.Views, churnCache)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	c := newClient()
	defer c.close()
	// Warm the connection and the server's lazily built state with
	// queries the round never asks again.
	for _, q := range starQueries(e.rng(-1-round), coveredRelations(r.inst.Views), serveSubgoals, warmups) {
		if _, err := c.post(srv.base+"/plan", planBody(q)); err != nil {
			return nil, err
		}
	}
	res.setup = time.Since(start)

	responses := make([][]byte, len(r.steps))
	errs := make([]error, len(r.steps))
	var mutate []time.Duration
	var mutateErr error
	cpu0, err := procCPU(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for i, step := range r.steps {
		s := time.Now()
		body, err := c.post(srv.base+"/plan", step.body)
		res.lat = append(res.lat, time.Since(s))
		responses[i], errs[i] = append([]byte(nil), body...), err
		if (i+1)%mutateEvery == 0 {
			j := i / mutateEvery
			s := time.Now()
			if _, err := c.post(srv.base+"/views/add", r.adds[j]); err != nil && mutateErr == nil {
				mutateErr = err
			}
			if _, err := c.post(srv.base+"/views/remove", r.removes[j]); err != nil && mutateErr == nil {
				mutateErr = err
			}
			mutate = append(mutate, time.Since(s))
		}
	}
	res.wall = time.Since(t0)
	if err := srv.usage(e, res, cpu0); err != nil {
		return nil, err
	}
	if mutateErr != nil {
		return nil, fmt.Errorf("serve-churn: view mutation failed: %w", mutateErr)
	}
	e.mutateLat = append(e.mutateLat, mutate...)

	out := newDigest()
	for i := range r.steps {
		err := errs[i]
		var hit bool
		var inside time.Duration
		if err == nil {
			_, hit, inside, err = splitBody(responses[i])
		}
		if err == nil {
			// The add/remove pairs leave the view set as it was, so every
			// answer is checked against the round's catalog.
			err = checkPlanResponse(responses[i], r.inst.Views, out)
		}
		if err != nil {
			res.fail("serve-churn", i, err)
			continue
		}
		if hit {
			e.layers.add("cache.hits", 1)
		}
		e.layers.add("cache.asks", 1)
		e.layers.addDur("http.overhead", res.lat[i]-inside)
	}
	res.digest = out.sum()
	return res, nil
}

func replayServeChurn(e *env, round int, log *spanLog) error {
	r, err := churnInputs(e.rng(round), nil)
	if err != nil {
		return err
	}
	if _, err := e.compiled(log, r.inst.Views); err != nil {
		return err
	}
	srv, err := service.New(service.Config{Views: r.inst.Views, CacheSize: churnCache})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	for i, step := range r.steps {
		resp, err := e.replayPlan(log, srv, i, step.query, &buf)
		if err != nil {
			return err
		}
		if !resp.CacheHit {
			// Rendering happens inside the service on a miss; time it alone
			// on the same rewritings.
			rewritings := make([]*viewplan.Query, len(resp.Rewritings))
			for k, s := range resp.Rewritings {
				if rewritings[k], err = viewplan.ParseQuery(s); err != nil {
					return err
				}
			}
			e.render(log, i, rewritings)
		}
		if (i+1)%mutateEvery == 0 {
			j := i / mutateEvery
			e.layers.addDur("corecover.add_view", log.timed("corecover.add_view", i, func() { _, err = srv.AddView(r.addDefs[j]) }))
			if err != nil {
				return err
			}
			e.layers.addDur("corecover.remove_view", log.timed("corecover.remove_view", i, func() { _, err = srv.RemoveView(r.addNames[j]) }))
			if err != nil {
				return err
			}
			e.layers.add("corecover.mutations", 1)
		}
	}
	return nil
}

// Command planserve runs the resident planning service: it compiles a
// view file into an immutable ViewCatalog once at startup, then answers
// planning requests over HTTP/JSON through a shared concurrent plan
// cache, with copy-on-write view mutations and live telemetry.
//
// Usage:
//
//	planserve -views views.dl                 # serve on :8080
//	planserve -views views.dl -addr :9090 -cache 4096
//
// Endpoints:
//
//	POST /plan          {"query": "q(X) :- e(X, Y)", "star": false}
//	POST /views/add     {"view": "v9(X, Y) :- e(X, Y)"}
//	POST /views/remove  {"name": "v9"}
//	GET  /views
//	GET  /metrics       # registry snapshot: counters (plan_cache_hits/
//	                    # misses/evictions), phase times, latency histograms
//
// A client gets 10 s to send its request headers, and a request body
// over 1 MiB is answered 413.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"viewplan"
	"viewplan/internal/service"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "HTTP listen address")
		viewsFl = flag.String("views", "", "view definitions file (Datalog, one rule per view; required)")
		cache   = flag.Int("cache", 1024, "plan cache capacity in entries (0 disables caching)")
	)
	flag.Parse()
	if err := run(*addr, *viewsFl, *cache); err != nil {
		fmt.Fprintln(os.Stderr, "planserve:", err)
		os.Exit(1)
	}
}

func run(addr, viewsFile string, cache int) error {
	if viewsFile == "" {
		return fmt.Errorf("-views FILE is required")
	}
	src, err := os.ReadFile(viewsFile)
	if err != nil {
		return err
	}
	vs, err := viewplan.ParseViews(string(src))
	if err != nil {
		return err
	}
	srv, err := service.New(service.Config{Views: vs, CacheSize: cache})
	if err != nil {
		return err
	}
	fmt.Printf("planserve: %d views compiled (generation %d), cache capacity %d, serving on %s\n",
		srv.Catalog().Len(), srv.Catalog().Generation(), cache, addr)
	hs := &http.Server{Addr: addr, Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	return hs.ListenAndServe()
}

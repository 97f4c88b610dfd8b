// Command confluxd is the planner service: a high-QPS HTTP/JSON server
// answering "which engine/grid minimizes communication volume (or modeled
// α-β time) on my machine?" for requested (N, P, machine) points
// (ROADMAP item 2 — the "millions of users" serving story).
//
// Because every simulation is a pure function of the canonical parameter
// tuple (reports are pinned byte-identical across reps, executors, and
// event-window widths), results are infinitely cacheable: requests are
// canonicalized into deterministic keys (internal/plan), answered from an
// in-memory cache with singleflight coalescing, and load-shed with
// typed 429/503 + Retry-After once the bounded simulation pool and its
// queue are saturated. The closed-form Table 2 cost models serve as an
// instant approximate tier while exact simulations proceed. See DESIGN.md
// §13.
//
//	confluxd -addr :8080
//	curl 'localhost:8080/v1/plan?n=4096&p=64'
//	curl 'localhost:8080/v1/plan?n=4096&p=64&algo=COnfLUX&beta=2e-10&objective=time'
//	curl 'localhost:8080/v1/stats'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	cfg := defaultServerConfig()
	addr := flag.String("addr", ":8080", "listen address")
	flag.IntVar(&cfg.maxInFlight, "max-inflight", 0, "max concurrently running simulations (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.maxQueue, "max-queue", cfg.maxQueue, "max requests queued for a simulation slot (beyond it: 429)")
	flag.DurationVar(&cfg.queueTimeout, "queue-timeout", cfg.queueTimeout, "max time a request queues for a slot (beyond it: 503)")
	flag.DurationVar(&cfg.simTimeout, "sim-timeout", cfg.simTimeout, "wall-clock bound on one simulation")
	flag.DurationVar(&cfg.defaultWait, "default-wait", cfg.defaultWait, "default exact-tier wait budget (the wait query param overrides)")
	flag.DurationVar(&cfg.maxWait, "max-wait", cfg.maxWait, "upper bound on the wait query param")
	flag.IntVar(&cfg.maxN, "max-n", cfg.maxN, "largest accepted matrix dimension")
	flag.IntVar(&cfg.maxP, "max-p", cfg.maxP, "largest accepted rank count")
	flag.IntVar(&cfg.cacheSize, "cache-entries", 0, "result cache capacity in entries (0 = 64k)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	s := newServer(ctx, cfg)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.routes(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("confluxd: serving on %s (max-inflight=%d, max-queue=%d, queue-timeout=%v)",
		*addr, cfg.maxInFlight, cfg.maxQueue, cfg.queueTimeout)

	select {
	case err := <-errc:
		log.Fatalf("confluxd: %v", err)
	case <-ctx.Done():
	}
	log.Printf("confluxd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "confluxd: shutdown: %v\n", err)
	}
}

// Command cashserve exposes the cash engine over TCP: build, run,
// compare, and table requests arrive as length-prefixed frames (see
// internal/srv), are admitted through a bounded worker pool, and are
// served by one shared engine with its artifact and run caches. The
// worker pool is the only concurrency bound: at most -workers requests
// execute at once, whatever the host's core count.
//
// Usage:
//
//	cashserve -listen :7313
//
// Robustness knobs:
//
//	-workers N        worker pool size (default 8)
//	-queue N          request queue depth; a full queue sheds with a
//	                  typed over-capacity response (default 64)
//	-quota-rate R     per-connection requests/second (0 = unlimited)
//	-quota-burst N    per-connection burst size (default 8)
//	-write-timeout D  slow-client disconnect threshold (default 5s)
//	-drain D          graceful-drain budget on SIGINT/SIGTERM; when it
//	                  expires, in-flight work is hard-canceled (default 30s)
//
// Cache and persistence knobs:
//
//	-cache-budget N   in-memory artifact/run cache byte budget
//	                  (0 = 64 MiB default; negative is an error)
//	-store DIR        persist compiled artifacts and deterministic run
//	                  outcomes under DIR; a restarted server pointed at
//	                  the same DIR warm-starts from them
//	-store-budget N   on-disk store byte budget (0 = 1 GiB default,
//	                  negative = unlimited)
//
// Chaos (wire-fault injection, for resilience testing):
//
//	-chaos-rate P     per-event injection probability (default 0 = off)
//	-chaos-seed N     fault schedule seed (default 1)
//
// On SIGINT/SIGTERM the server drains gracefully: listeners close, new
// requests get typed shutting-down responses, in-flight requests finish
// and flush within the drain budget, then the engine is closed.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cash/internal/chaos"
	"cash/internal/serve"
	"cash/internal/srv"
)

func main() {
	var (
		listen       = flag.String("listen", ":7313", "TCP listen address")
		workers      = flag.Int("workers", srv.DefaultWorkers, "worker pool size")
		queue        = flag.Int("queue", srv.DefaultQueueDepth, "request queue depth (-1 = no queue beyond workers)")
		quotaRate    = flag.Float64("quota-rate", 0, "per-connection requests/second (0 = unlimited)")
		quotaBurst   = flag.Int("quota-burst", 8, "per-connection burst size")
		writeTimeout = flag.Duration("write-timeout", srv.DefaultWriteTimeout, "slow-client disconnect threshold")
		drain        = flag.Duration("drain", 30*time.Second, "graceful drain budget before hard cancel")
		chaosRate    = flag.Float64("chaos-rate", 0, "wire-fault injection probability (0 = off)")
		chaosSeed    = flag.Uint64("chaos-seed", chaos.DefaultSeed, "wire-fault schedule seed")
		cacheBudget  = flag.Int64("cache-budget", 0, "in-memory artifact/run cache byte budget (0 = 64 MiB default; negative is an error)")
		storeDir     = flag.String("store", "", "root a persistent on-disk artifact/run store at this directory; a restarted server warm-starts from it")
		storeBudget  = flag.Int64("store-budget", 0, "on-disk store byte budget (0 = 1 GiB default, negative = unlimited); only with -store")
	)
	flag.Parse()

	eng, err := serve.Open(serve.EngineConfig{
		CacheBytes: *cacheBudget,
		StoreDir:   *storeDir,
		StoreBytes: *storeBudget,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cashserve: %v\n", err)
		os.Exit(1)
	}
	cfg := srv.Config{
		Engine:       eng,
		Workers:      *workers,
		QueueDepth:   *queue,
		QuotaRate:    *quotaRate,
		QuotaBurst:   *quotaBurst,
		WriteTimeout: *writeTimeout,
	}
	if *chaosRate > 0 {
		cfg.Chaos = chaos.NewPlan(chaos.Config{
			Seed: *chaosSeed, Rate: *chaosRate, Sites: chaos.NetSites(),
		})
	}
	s := srv.New(cfg)

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cashserve: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "cashserve: listening on %s (workers %d, queue %d)\n",
		l.Addr(), *workers, *queue)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()

	select {
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "cashserve: %v — draining (budget %v)\n", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "cashserve: drain budget expired, in-flight work canceled\n")
		}
		if err := <-serveErr; err != nil {
			fmt.Fprintf(os.Stderr, "cashserve: %v\n", err)
		}
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "cashserve: %v\n", err)
		eng.Close()
		os.Exit(1)
	}
	eng.Close()
	snap := s.LatencySnapshot()
	fmt.Fprintf(os.Stderr, "cashserve: served %d runs, sim p50 %d p99 %d cycles\n",
		snap.Count, snap.Quantile(50), snap.Quantile(99))
}

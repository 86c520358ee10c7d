// Command cashload is an open-loop load generator for the cash wire
// server (internal/srv): N concurrent clients issue run requests on a
// fixed arrival schedule — request k of the global sequence departs at
// start + k/rate whether or not earlier requests have completed — and
// the tool reports availability plus simulated-latency quantiles.
//
// Usage:
//
//	cashload -addr host:7313 -clients 100 -per-client 10 -rate 500
//	cashload -pipe                    hermetic in-process server
//
// The report is deterministic for a seeded run: counts are a pure
// function of the schedule and the latency histogram holds simulated
// cycles, never host time, so -pipe output is byte-comparable across
// machines (the CI soak lane diffs it against a committed golden).
//
//	-seed N       request-mix seed (default 1)
//	-rate R       aggregate arrival rate, requests/second (0 = all at once)
//	-timeout D    per-request deadline (0 = none)
//	-retries N    retry budget per request for sheds and transport faults
//	-strategy S   checking strategy for every request: gcc, bcc, cash
//	              or mpx (default cash)
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"cash/internal/serve"
	"cash/internal/srv"
)

func main() {
	var (
		addr      = flag.String("addr", "", "server address (mutually exclusive with -pipe)")
		pipe      = flag.Bool("pipe", false, "drive an in-process server over net.Pipe (hermetic)")
		clients   = flag.Int("clients", srv.GoldenClients, "concurrent client connections")
		perClient = flag.Int("per-client", srv.GoldenPerClient, "requests per client")
		rate      = flag.Float64("rate", srv.GoldenRate, "aggregate arrival rate, requests/second")
		seed      = flag.Uint64("seed", srv.GoldenSeed, "request-mix seed")
		strategy  = flag.String("strategy", "cash", "checking strategy for every request")
		timeout   = flag.Duration("timeout", 0, "per-request deadline (0 = none)")
		retries   = flag.Int("retries", 0, "retry budget per request")
		workers   = flag.Int("workers", 16, "with -pipe: server worker pool size")
		queue     = flag.Int("queue", 4096, "with -pipe: server queue depth")
	)
	flag.Parse()

	cfg := srv.LoadConfig{
		Clients:   *clients,
		PerClient: *perClient,
		Rate:      *rate,
		Seed:      *seed,
		Mode:      *strategy,
		Timeout:   *timeout,
		Retries:   *retries,
	}

	switch {
	case *pipe && *addr != "":
		fmt.Fprintln(os.Stderr, "cashload: -pipe and -addr are mutually exclusive")
		os.Exit(2)
	case *pipe:
		// Hermetic mode: an in-process server over synchronous pipes.
		// The queue depth keeps the golden run sub-capacity, so
		// availability is 100% by construction.
		eng := serve.NewEngine(serve.EngineConfig{})
		s := srv.New(srv.Config{Engine: eng, Workers: *workers, QueueDepth: *queue})
		l := srv.NewPipeListener()
		go s.Serve(l)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			s.Shutdown(ctx)
			eng.Close()
		}()
		cfg.Dial = l.Dial
	case *addr != "":
		a := *addr
		cfg.Dial = func() (net.Conn, error) { return net.Dial("tcp", a) }
	default:
		fmt.Fprintln(os.Stderr, "cashload: one of -addr or -pipe is required")
		os.Exit(2)
	}

	begin := time.Now()
	rep, err := srv.RunLoad(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cashload: %v\n", err)
		os.Exit(1)
	}
	// The report (stdout) is deterministic; wall-clock goes to stderr so
	// stdout stays byte-comparable.
	fmt.Print(rep.Format())
	fmt.Fprintf(os.Stderr, "cashload: %d requests in %v\n", rep.Total(), time.Since(begin).Round(time.Millisecond))
}

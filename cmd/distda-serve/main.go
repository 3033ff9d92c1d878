// distda-serve runs the simulation-as-a-service job server: clients POST
// experiment jobs (one workload × configuration run, or a §VI reproduction
// matrix selection) as JSON, poll or stream progress, and fetch rendered
// results that are byte-identical to the equivalent distda-run /
// distda-repro invocation. See docs/SERVING.md for the API.
//
// Usage:
//
//	distda-serve -addr localhost:8080
//	distda-serve -addr :8080 -workers 4 -queue 128 -rate 2 -burst 10
//	distda-serve -cache-dir .distda-cache -state-dir .distda-serve
//
// SIGINT/SIGTERM drains gracefully: in-flight jobs get -drain-timeout to
// finish, everything unfinished is journaled to -state-dir and resumed —
// byte-identically — by the next start.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"distda/internal/artifact"
	"distda/internal/cliutil"
	"distda/internal/obs"
	"distda/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr, nil))
}

// run is the testable entry point. ready, when non-nil, receives the bound
// listen address once the server accepts connections.
func run(args []string, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("distda-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:8080", "HTTP listen address")
	workers := fs.Int("workers", 2, "jobs executing concurrently")
	cellWorkers := fs.Int("cell-workers", 0, "matrix cell workers per job (0 = GOMAXPROCS); output is identical at any setting")
	queueDepth := fs.Int("queue", 64, "job queue capacity; a full queue rejects submissions with 429")
	rate := fs.Float64("rate", 0, "per-tenant sustained submission rate in jobs/second (0 = unlimited)")
	burst := fs.Int("burst", 8, "per-tenant burst allowance (token bucket depth)")
	cacheDir := fs.String("cache-dir", "", "content-addressed cache directory for compiled kernels and results (shared with the batch CLIs; empty = in-memory only)")
	stateDir := fs.String("state-dir", "", "directory for matrix checkpoints and the shutdown journal (empty = no resume across restarts)")
	cellTimeout := fs.Duration("cell-timeout", 0, "per-cell wall-clock budget for matrix jobs; cells over budget render as n/a")
	retries := fs.Int("retries", 0, "retry budget per matrix cell for transient failures")
	drain := fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for running jobs before canceling and journaling them")
	if err := fs.Parse(args); err != nil {
		return cliutil.ExitUsage
	}
	logger := slog.New(slog.NewTextHandler(stderr, nil))
	fail := func(err error) int {
		logger.Error("fatal", "err", err)
		return cliutil.ExitError
	}

	// The effective startup configuration, in one queryable line: what the
	// defaults resolved to matters when diagnosing backpressure or resume
	// behavior after the fact.
	logger.Info("starting",
		"addr", *addr, "workers", *workers, "cell_workers", *cellWorkers,
		"queue_depth", *queueDepth, "rate", *rate, "burst", *burst,
		"cache_dir", *cacheDir, "state_dir", *stateDir,
		"cell_timeout", *cellTimeout, "retries", *retries, "drain_timeout", *drain)

	srv, err := serve.NewServer(serve.Config{
		Workers:     *workers,
		CellWorkers: *cellWorkers,
		QueueDepth:  *queueDepth,
		Rate:        *rate,
		Burst:       *burst,
		Cache:       artifact.New(artifact.Config{Dir: *cacheDir}),
		StateDir:    *stateDir,
		CellTimeout: *cellTimeout,
		Retries:     *retries,
		Obs:         obs.New(),
		Logger:      logger,
	})
	if err != nil {
		return fail(err)
	}
	if restored := srv.Stats().Restored; restored > 0 {
		logger.Info("journal restored", "jobs", restored)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Shutdown(context.Background())
		return fail(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stderr, "distda-serve: listening on http://%s (POST /api/v1/jobs)\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		srv.Shutdown(context.Background())
		return fail(err)
	case got := <-sig:
		logger.Info("signal received, draining", "signal", got.String(), "timeout", *drain)
	}

	// Flip readiness first (GET /readyz → 503) so load balancers stop
	// routing here, then stop accepting HTTP, then drain the job queue:
	// running jobs get the drain budget, everything else lands in the
	// journal.
	srv.StartDrain()
	httpCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	_ = httpSrv.Shutdown(httpCtx)
	cancel()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	progress := make(chan struct{})
	go func() {
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-progress:
				return
			case <-tick.C:
				st := srv.Stats()
				logger.Info("drain progress", "queued", st.QueueLen, "running", st.Running)
			}
		}
	}()
	err = srv.Shutdown(drainCtx)
	close(progress)
	if err != nil {
		return fail(err)
	}
	logger.Info("drained")
	return cliutil.ExitOK
}

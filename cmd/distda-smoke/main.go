// distda-smoke drives an end-to-end smoke test against a running
// distda-serve instance through the internal/serveclient API: it submits
// one run job and one matrix job, follows their progress streams, and
// asserts the served bytes are identical to reference files produced by
// the batch CLIs (the serving layer's core guarantee). It then resubmits
// the run job and checks the result cache answered, and verifies the
// per-backend submission counters in /api/v1/stats. It also scrapes
// GET /metrics before and after the run job and asserts the exposition
// parses and the per-tenant job counters moved.
//
// scripts/serve_smoke.sh builds the binaries, generates the reference
// files, starts the server and invokes this tool; run it standalone with:
//
//	distda-smoke -base http://localhost:8080 -run-want run.txt -matrix-want matrix.txt
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"distda/internal/cliutil"
	"distda/internal/exp"
	"distda/internal/obs"
	"distda/internal/serve"
	"distda/internal/serveclient"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("distda-smoke", flag.ContinueOnError)
	fs.SetOutput(stderr)
	base := fs.String("base", "http://localhost:8080", "distda-serve base URL")
	runWant := fs.String("run-want", "", "reference file with the distda-run output the run job must match (empty = skip comparison)")
	matrixWant := fs.String("matrix-want", "", "reference file with the distda-repro output the matrix job must match (empty = skip comparison)")
	timeout := fs.Duration("timeout", 5*time.Minute, "overall deadline")
	if err := fs.Parse(args); err != nil {
		return cliutil.ExitUsage
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "distda-smoke: "+format+"\n", a...)
		return cliutil.ExitError
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := serveclient.New(*base)

	fmt.Fprintln(stderr, "== health")
	if err := c.Health(ctx); err != nil {
		return fail("health check: %v", err)
	}
	if err := c.Ready(ctx); err != nil {
		return fail("readiness check: %v", err)
	}

	fmt.Fprintln(stderr, "== metrics (before)")
	mBefore, err := c.Metrics(ctx)
	if err != nil {
		return fail("metrics scrape: %v", err)
	}

	// submit-wait-fetch runs one job to completion, streaming progress.
	fetch := func(spec serve.JobSpec) (serve.JobStatus, []byte, error) {
		st, err := c.Submit(ctx, spec)
		if err != nil {
			return st, nil, fmt.Errorf("submit: %w", err)
		}
		var events int
		fin, err := c.Wait(ctx, st.ID, func(obs.Snapshot) { events++ })
		if err != nil {
			return st, nil, fmt.Errorf("wait %s: %w", st.ID, err)
		}
		if fin.State != serve.StateDone {
			return fin, nil, fmt.Errorf("job %s ended %s: %s", st.ID, fin.State, fin.Error)
		}
		fmt.Fprintf(stderr, "   job %s done (%d progress events, backend %q)\n", st.ID, events, st.Backend)
		out, err := c.Result(ctx, st.ID)
		if err != nil {
			return fin, nil, fmt.Errorf("result %s: %w", st.ID, err)
		}
		return fin, out, nil
	}
	compare := func(got []byte, wantFile, what string) error {
		if wantFile == "" {
			return nil
		}
		want, err := os.ReadFile(wantFile)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("served %s output differs from %s", what, wantFile)
		}
		return nil
	}

	fmt.Fprintln(stderr, "== run job")
	runSpec := serve.JobSpec{Workload: "fdtd-2d", Config: "Dist-DA-F", Scale: "test"}
	st, out, err := fetch(runSpec)
	if err != nil {
		return fail("%v", err)
	}
	if st.Backend != "cgra" {
		return fail("run job backend = %q, want cgra", st.Backend)
	}
	if err := compare(out, *runWant, "run"); err != nil {
		return fail("%v", err)
	}

	// The wall-clock telemetry must have seen the job: the per-tenant done
	// counter moves, and the queue/stage series exist in a valid exposition.
	fmt.Fprintln(stderr, "== metrics (after run job)")
	mAfter, err := c.Metrics(ctx)
	if err != nil {
		return fail("metrics scrape: %v", err)
	}
	doneKey := fmt.Sprintf("distda_jobs_total{outcome=%q,tenant=%q}", "done", "anonymous")
	if mAfter[doneKey] <= mBefore[doneKey] {
		return fail("%s did not increase (%v -> %v)", doneKey, mBefore[doneKey], mAfter[doneKey])
	}
	for _, key := range []string{
		"distda_queue_depth",
		"distda_running_jobs",
		fmt.Sprintf("distda_job_stage_seconds_count{stage=%q}", "executing"),
		fmt.Sprintf("distda_job_queue_wait_seconds_count{tenant=%q}", "anonymous"),
	} {
		if _, ok := mAfter[key]; !ok {
			return fail("metrics scrape missing %s", key)
		}
	}
	fmt.Fprintf(stderr, "   %d series, %s = %v\n", len(mAfter), doneKey, mAfter[doneKey])

	fmt.Fprintln(stderr, "== matrix job")
	_, out, err = fetch(serve.JobSpec{Kind: serve.KindMatrix, Scale: "test",
		Selection: exp.Selection{Figs: []string{"7"}}})
	if err != nil {
		return fail("%v", err)
	}
	if err := compare(out, *matrixWant, "matrix"); err != nil {
		return fail("%v", err)
	}

	fmt.Fprintln(stderr, "== cached resubmission")
	before, err := c.Stats(ctx)
	if err != nil {
		return fail("stats: %v", err)
	}
	st2, err := c.Submit(ctx, runSpec)
	if err != nil {
		return fail("resubmit: %v", err)
	}
	if !st2.Cached || st2.State != serve.StateDone {
		return fail("resubmission was not a result cache hit: %+v", st2)
	}
	out2, err := c.Result(ctx, st2.ID)
	if err != nil {
		return fail("cached result: %v", err)
	}
	if err := compare(out2, *runWant, "cached run"); err != nil {
		return fail("%v", err)
	}
	after, err := c.Stats(ctx)
	if err != nil {
		return fail("stats: %v", err)
	}
	if after.CacheHits <= before.CacheHits {
		return fail("resubmission did not hit the result cache (%d -> %d)", before.CacheHits, after.CacheHits)
	}
	if after.Backends["cgra"] < 2 {
		return fail("stats backends = %v, want cgra counted twice", after.Backends)
	}

	fmt.Fprintln(stderr, "distda-smoke: OK")
	return cliutil.ExitOK
}

// distda-repro regenerates every table and figure of the paper's evaluation
// (§VI) from the simulator. Each figure prints as an aligned text table with
// the paper's target numbers noted alongside.
//
// Usage:
//
//	distda-repro -all                 # everything (default scale: bench)
//	distda-repro -fig 7 -fig 11b     # specific figures
//	distda-repro -tab 6 -scale test  # Table VI at CI scale
//	distda-repro -all -parallel 8 -trace-dir traces -metrics
//	distda-repro -all -cache-dir .distda-cache -checkpoint run.ckpt \
//	             -cell-timeout 5m   # resumable, fault-tolerant run
//
// Exit codes: 0 success, 1 error, 2 usage, 3 completed with degraded (n/a)
// matrix cells (see -cell-timeout).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"distda/internal/cliutil"
	"distda/internal/engine"
	"distda/internal/exp"
	"distda/internal/obs"
	"distda/internal/profile"
	"distda/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable CLI entry point. Every -fig / -tab selection is
// validated before anything is computed or printed, so an unknown name
// fails with a non-zero exit and no partial tables on stdout.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("distda-repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var figs, tabs cliutil.StringList
	scaleName := fs.String("scale", "bench", "input scale: test, bench, paper")
	all := fs.Bool("all", false, "regenerate every table and figure")
	headline := fs.Bool("headline", false, "print the abstract's headline geomeans")
	ablations := fs.Bool("ablations", false, "run the DESIGN.md ablation benches")
	sens := fs.Bool("sens", false, "working-set sensitivity")
	params := fs.Bool("params", false, "print Table III parameters")
	area := fs.Bool("area", false, "print the area model")
	offchip := fs.Bool("offchip", false, "evaluate the §VII off-chip placement extension")
	pim := fs.Bool("pim", false, "compare near-L3 offload against the PIM-in-DRAM backend")
	parallel := fs.Int("parallel", 0, "worker count for the experiment matrix (0 = GOMAXPROCS, 1 = serial); output is identical at any setting")
	engineMode := fs.String("engine", "adaptive", "engine scheduler: adaptive|naive (bit-identical output, wall-clock only)")
	metrics := fs.Bool("metrics", false, "print the matrix's merged per-component metrics table (includes artifact cache hit/miss counters)")
	statsPath := fs.String("stats", "", "write the matrix's merged gem5-style stats dump (cycle/energy attribution) to this file")
	foldedPath := fs.String("folded", "", "write the matrix's folded stacks of simulated time (FlameGraph/speedscope input) to this file")
	breakdown := fs.Bool("breakdown", false, "print the offload latency breakdown table (dispatch/queue/execute/writeback)")
	httpAddr := fs.String("http", "", "serve live run introspection on this address (/progress JSON + expvar + pprof), e.g. localhost:6060")
	traceDir := fs.String("trace-dir", "", "write one Chrome trace JSON per matrix cell into this directory")
	cacheDir := fs.String("cache-dir", "", "content-addressed compile cache directory; reused across runs (empty = in-memory only)")
	checkpoint := fs.String("checkpoint", "", "JSON checkpoint path: rewritten after every completed matrix cell; an existing file resumes only the missing cells")
	cellTimeout := fs.Duration("cell-timeout", 0, "per-cell wall-clock deadline; a timed-out cell renders as n/a and the run exits 3 (0 = unbounded)")
	retries := fs.Int("retries", 0, "retry budget per cell for transient failures")
	hangCell := fs.String("hang-cell", "", "TESTING: hang the given workload/config cell until its deadline (e.g. fdtd-2d/Dist-DA-IO)")
	fs.Var(&figs, "fig", "figure to regenerate (7, 8, 9, 10, 11a, 11b, 12a, 12b, 13, 14); repeatable")
	fs.Var(&tabs, "tab", "table to regenerate (3, 4, 5, 6); repeatable")
	if err := fs.Parse(args); err != nil {
		return cliutil.ExitUsage
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "distda-repro:", err)
		return cliutil.ExitError
	}

	scale, err := cliutil.ParseScale(*scaleName)
	if err != nil {
		return fail(err)
	}
	sel := exp.Selection{
		Figs: figs, Tabs: tabs,
		Headline: *headline, Params: *params, Sens: *sens,
		Area: *area, OffChip: *offchip, PIM: *pim, Ablations: *ablations,
	}
	if *all {
		sel.SetAll()
	}
	// Validate every selection up front: a typo must not cost a matrix
	// build, and must not leave earlier tables on stdout.
	if err := sel.Validate(); err != nil {
		return fail(err)
	}
	if sel.Empty() {
		fs.Usage()
		return cliutil.ExitUsage
	}

	// Observability: per-cell tracers are drawn serially in cell order and
	// written out (deterministically named) once the matrix is built, so
	// -parallel never changes file names or contents.
	observe := exp.Observe{}
	var met *trace.Metrics
	if *metrics {
		met = trace.NewMetrics()
		observe.Metrics = met
	}
	var prof *profile.Profiler
	if *statsPath != "" || *foldedPath != "" || *breakdown {
		prof = profile.New()
		observe.Profile = prof
	}
	type cellTrace struct {
		path string
		tr   *trace.Tracer
	}
	var cellTraces []cellTrace
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return fail(err)
		}
		dir := *traceDir
		observe.Tracer = func(workload, config string) *trace.Tracer {
			tr := trace.New()
			cellTraces = append(cellTraces, cellTrace{
				path: filepath.Join(dir, fmt.Sprintf("%s-%s.trace.json", workload, config)),
				tr:   tr,
			})
			return tr
		}
	}

	// The resumable runner: cached compilation, per-cell deadlines, and a
	// checkpoint that lets an interrupted run pick up where it stopped.
	emode, err := engine.ParseMode(*engineMode)
	if err != nil {
		return fail(err)
	}
	buildOpts := exp.Options{
		Scale:       scale,
		Workers:     *parallel,
		Observe:     observe,
		Cache:       cliutil.OpenCache(*cacheDir),
		Checkpoint:  *checkpoint,
		CellTimeout: *cellTimeout,
		Retries:     *retries,
		EngineMode:  emode,
	}
	// Live introspection: the /progress view is fed per-cell completion
	// events from exp.Build; expvar and pprof expose the host process.
	if *httpAddr != "" {
		prog := profile.NewProgress(0)
		intro, err := cliutil.ServeIntrospection(*httpAddr, prog, obs.New())
		if err != nil {
			return fail(err)
		}
		defer intro.Shutdown(context.Background())
		fmt.Fprintf(stderr, "distda-repro: introspection on http://%s (/progress, /metrics, /debug/vars, /debug/pprof/)\n", intro.Addr())
		buildOpts.Progress = func(ev exp.ProgressEvent) {
			prog.SetTotal(ev.Total)
			prog.Record(profile.CellStatus{
				Workload: ev.Workload, Config: ev.Config,
				Dur: ev.Dur, Degraded: ev.Degraded, Resumed: ev.Resumed,
			})
		}
	}
	if *hangCell != "" {
		target := *hangCell
		buildOpts.Hook = func(ctx context.Context, workload, config string, attempt int) error {
			if workload+"/"+config == target {
				<-ctx.Done()
				return ctx.Err()
			}
			return nil
		}
	}

	var matrix *exp.Matrix
	var buildErr error
	needMatrix := func() *exp.Matrix {
		if matrix == nil && buildErr == nil {
			fmt.Fprintf(stderr, "building %s-scale workload x configuration matrix (12 x 6 runs)...\n", scale)
			m, err := exp.Build(context.Background(), buildOpts)
			if err != nil {
				buildErr = err
				return nil
			}
			matrix = m
			var degraded []string
			for w, byCfg := range m.Degraded {
				for c, reason := range byCfg {
					degraded = append(degraded, fmt.Sprintf("%s/%s: %s", w, c, reason))
				}
			}
			sort.Strings(degraded)
			for _, d := range degraded {
				fmt.Fprintln(stderr, "distda-repro: cell degraded to n/a:", d)
			}
			for _, ct := range cellTraces {
				if err := cliutil.WriteTrace(ct.tr, ct.path); err != nil {
					buildErr = err
					return nil
				}
			}
			if len(cellTraces) > 0 {
				fmt.Fprintf(stderr, "distda-repro: wrote %d trace files to %s\n", len(cellTraces), *traceDir)
			}
		}
		return matrix
	}

	// All selected tables and figures render through exp.RenderSelection —
	// the same entry point the distda-serve job server uses — so the bytes
	// on stdout for a given selection are identical across both front ends.
	if err := exp.RenderSelection(stdout, scale, sel, func() (*exp.Matrix, error) {
		if m := needMatrix(); m != nil {
			return m, nil
		}
		return nil, buildErr
	}); err != nil {
		return fail(err)
	}
	if met != nil {
		if matrix == nil {
			fmt.Fprintln(stderr, "distda-repro: -metrics set but no matrix-backed output was selected; nothing collected")
		} else {
			fmt.Fprintln(stdout, met.Table().Render())
		}
	}
	if prof != nil {
		if matrix == nil {
			fmt.Fprintln(stderr, "distda-repro: profiling flags set but no matrix-backed output was selected; nothing collected")
		}
		if *breakdown {
			fmt.Fprintln(stdout, prof.LatencyBreakdown().Render())
		}
		if *statsPath != "" {
			if err := cliutil.WriteStats(prof, *statsPath); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stderr, "distda-repro: wrote stats dump to %s\n", *statsPath)
		}
		if *foldedPath != "" {
			if err := cliutil.WriteFolded(prof, *foldedPath); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stderr, "distda-repro: wrote folded stacks to %s\n", *foldedPath)
		}
	}
	if matrix != nil && matrix.DegradedCount() > 0 {
		fmt.Fprintf(stderr, "distda-repro: %d matrix cell(s) degraded to n/a\n", matrix.DegradedCount())
		return cliutil.ExitDegraded
	}
	return cliutil.ExitOK
}

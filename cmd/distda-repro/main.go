// distda-repro regenerates every table and figure of the paper's evaluation
// (§VI) from the simulator. Each figure prints as an aligned text table with
// the paper's target numbers noted alongside. The cells of every selected
// section run on one worker pool (-parallel), under -cell-timeout,
// -checkpoint, -trace-dir, -stats and -http. -stats writes the merged
// per-component statistics of every cell (attribution, latency and
// occupancy histograms, counters, compile cache artifact.* counters) as
// one dump.
//
// Usage:
//
//	distda-repro -all                 # everything (default scale: bench)
//	distda-repro -fig 7 -fig 11b     # specific figures
//	distda-repro -tab 6 -scale test  # Table VI at CI scale
//	distda-repro -all -parallel 8 -trace-dir traces -stats stats.txt
//	distda-repro -all -cache-dir .distda-cache -checkpoint run.ckpt \
//	             -cell-timeout 5m   # resumable, fault-tolerant run
//
// Exit codes: 0 success, 1 error, 2 usage, 3 completed with degraded (n/a)
// cells (see -cell-timeout).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"distda/internal/cliutil"
	"distda/internal/exp"
	"distda/internal/obs"
	"distda/internal/profile"
	"distda/internal/trace"
)

// cellHook is the per-cell fault-injection hook (exp.Options.Hook).
// Nil in the shipped binary; tests set it to hang or fail chosen cells.
var cellHook exp.CellHook

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
	area := fs.Bool("area", false, "print the area model")
	offchip := fs.Bool("offchip", false, "evaluate the §VII off-chip placement extension")
	pim := fs.Bool("pim", false, "compare near-L3 offload against the PIM-in-DRAM backend")
	parallel := fs.Int("parallel", 0, "worker count for the simulated cells (0 = GOMAXPROCS, 1 = serial); output is identical at any setting")
	statsPath := fs.String("stats", "", "write the merged gem5-style stats dump of every simulated cell (attribution, histograms, counters incl. artifact cache hits/misses) to this file")
	foldedPath := fs.String("folded", "", "write the folded stacks of simulated time of every simulated cell (FlameGraph/speedscope input) to this file")
	breakdown := fs.Bool("breakdown", false, "print the offload latency breakdown table (dispatch/queue/execute/writeback)")
	httpAddr := fs.String("http", "", "serve live run introspection on this address (/progress JSON + expvar + pprof), e.g. localhost:6060")
	traceDir := fs.String("trace-dir", "", "write one Chrome trace JSON per simulated cell into this directory")
	cacheDir := fs.String("cache-dir", "", "content-addressed compile cache directory; reused across runs (empty = in-memory only)")
	checkpoint := fs.String("checkpoint", "", "JSON checkpoint path: rewritten after every completed cell; an existing file resumes only the missing cells")
	cellTimeout := fs.Duration("cell-timeout", 0, "per-cell wall-clock deadline; a timed-out cell renders as n/a and the run exits 3 (0 = unbounded)")
	fs.Var(&figs, "fig", "figure to regenerate (7, 8, 9, 10, 11a, 11b, 12a, 12b, 13, 14); repeatable")
	fs.Var(&tabs, "tab", "table to regenerate (3, 4, 5, 6); repeatable")
	if err := fs.Parse(args); err != nil {
		return cliutil.ExitUsage
	}
	if err := cliutil.CheckPathFlags(fs, "stats", "folded", "trace-dir"); err != nil {
		fmt.Fprintln(stderr, "distda-repro:", err)
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
		Headline: *headline, Sens: *sens,
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

	// Observability: each cell's tracer is written out (named after its
	// cell) as soon as the cell has run and then dropped, so -parallel
	// never changes file names or contents and at most one tracer per
	// worker is held.
	observe := exp.Observe{}
	var prof *profile.Profiler
	if *statsPath != "" || *foldedPath != "" || *breakdown {
		prof = profile.New()
		observe.Profile = prof
	}
	traces := 0
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return fail(err)
		}
		dir := *traceDir
		observe.TraceDone = func(cell string, tr *trace.Tracer) error {
			traces++
			return cliutil.WriteFile(filepath.Join(dir, cell+".trace.json"), tr.WriteChromeJSON)
		}
	}

	// The resumable runner: cached compilation, per-cell deadlines, and a
	// checkpoint that lets an interrupted run pick up where it stopped.
	opts := exp.Options{
		Scale:       scale,
		Workers:     *parallel,
		Observe:     observe,
		Cache:       cliutil.OpenCache(*cacheDir),
		Checkpoint:  *checkpoint,
		CellTimeout: *cellTimeout,
		Hook:        cellHook,
	}
	// Live introspection: the /progress view is fed per-cell completion
	// events; expvar and pprof expose the host process.
	if *httpAddr != "" {
		prog := obs.NewProgress()
		intro, err := cliutil.ServeIntrospection(*httpAddr, prog)
		if err != nil {
			return fail(err)
		}
		defer intro.Shutdown(context.Background())
		fmt.Fprintf(stderr, "distda-repro: introspection on http://%s (/progress, /debug/vars, /debug/pprof/)\n", intro.Addr())
		opts.Progress = prog.Record
	}

	// Every selected table and figure renders through exp.Render — the
	// same entry point the distda-serve job server uses — so the bytes on
	// stdout for a given selection are identical across both front ends.
	sum, err := exp.Render(context.Background(), stdout, sel, opts)
	if err != nil {
		return fail(err)
	}
	for _, d := range sum.Degraded {
		fmt.Fprintln(stderr, "distda-repro: cell degraded to n/a:", d)
	}
	if traces > 0 {
		fmt.Fprintf(stderr, "distda-repro: wrote %d trace files to %s\n", traces, *traceDir)
	}
	if prof != nil {
		if sum.Cells == 0 {
			fmt.Fprintln(stderr, "distda-repro: profiling flags set but no simulated output was selected; nothing collected")
		}
		if *breakdown {
			fmt.Fprintln(stdout, prof.LatencyBreakdown().Render())
		}
		if *statsPath != "" {
			if err := cliutil.WriteFile(*statsPath, prof.WriteStats); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stderr, "distda-repro: wrote stats dump to %s\n", *statsPath)
		}
		if *foldedPath != "" {
			if err := cliutil.WriteFile(*foldedPath, prof.WriteFolded); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stderr, "distda-repro: wrote folded stacks to %s\n", *foldedPath)
		}
	}
	if len(sum.Degraded) > 0 {
		fmt.Fprintf(stderr, "distda-repro: %d cell(s) degraded to n/a\n", len(sum.Degraded))
		return cliutil.ExitDegraded
	}
	return cliutil.ExitOK
}

// distda-run executes one workload under one configuration and prints the
// collected result: cycles, energy breakdown, traffic categories, interface
// mechanism usage and validation status. Per-component statistics (cycle
// and energy attribution, latency and occupancy histograms, cache, DRAM,
// NoC and access-unit counters) go to the -stats dump.
//
// Usage:
//
//	distda-run -w fdtd-2d -c Dist-DA-F -scale bench
//	distda-run -workload fdtd-2d -config dist-da-io -trace out.json -stats stats.txt
//	distda-run -w bfs -c OoO
//	distda-run -w fdtd-2d -cache-dir .distda-cache   # reuse compilations
//	distda-run -list
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"distda/internal/cliutil"
	"distda/internal/exp"
	"distda/internal/profile"
	"distda/internal/trace"
	"distda/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable CLI entry point: it parses args, executes the
// requested simulation, writes human output to stdout and errors to stderr,
// and returns the process exit code. Unknown workload or configuration
// names fail with a non-zero exit before any simulation output is printed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("distda-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var name, cfgName string
	fs.StringVar(&name, "w", "", "workload name (see -list)")
	fs.StringVar(&name, "workload", "", "workload name (alias of -w)")
	fs.StringVar(&cfgName, "c", "Dist-DA-F", "configuration: OoO, Mono-CA, Mono-DA-IO, Mono-DA-F, Dist-DA-IO, Dist-DA-F (case-insensitive)")
	fs.StringVar(&cfgName, "config", "", "configuration (alias of -c)")
	scaleName := fs.String("scale", "bench", "input scale: test, bench, paper")
	ghz := fs.Int("ghz", 0, "override accelerator clock (1, 2, 3)")
	threads := fs.Int("threads", 1, "software threads for parallel-annotated loops")
	traceOut := fs.String("trace", "", "write a Chrome trace_event JSON file (load in chrome://tracing or Perfetto)")
	statsPath := fs.String("stats", "", "write a gem5-style stats.txt dump (attribution, histograms, counters) to this path")
	foldedPath := fs.String("folded", "", "write folded stacks (FlameGraph/speedscope input) to this path")
	breakdown := fs.Bool("breakdown", false, "print the offload latency breakdown table (dispatch/queue/execute/writeback)")
	httpAddr := fs.String("http", "", "serve live introspection (expvar, pprof) on this address, e.g. localhost:6060")
	cacheDir := fs.String("cache-dir", "", "content-addressed compile cache directory (shared with distda-repro; empty = in-memory only)")
	list := fs.Bool("list", false, "list workloads and exit")
	if err := fs.Parse(args); err != nil {
		return cliutil.ExitUsage
	}
	if err := cliutil.CheckPathFlags(fs, "trace", "stats", "folded"); err != nil {
		fmt.Fprintln(stderr, "distda-run:", err)
		return cliutil.ExitUsage
	}
	if cfgName == "" {
		cfgName = "Dist-DA-F"
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "distda-run:", err)
		return cliutil.ExitError
	}

	scale, err := cliutil.ParseScale(*scaleName)
	if err != nil {
		return fail(err)
	}
	if *list {
		for _, b := range workloads.Builtins() {
			desc := b.New(scale).Desc
			if b.Kind != "" {
				desc += " (" + b.Kind + ")"
			}
			fmt.Fprintf(stdout, "%-14s %s\n", b.Name, desc)
		}
		return cliutil.ExitOK
	}
	if name == "" {
		fs.Usage()
		return cliutil.ExitUsage
	}
	w, err := cliutil.LookupWorkload(name, scale)
	if err != nil {
		return fail(err)
	}
	cfg, err := cliutil.LookupConfig(cfgName)
	if err != nil {
		return fail(err)
	}
	if *ghz != 0 {
		cfg = cfg.WithClock(*ghz)
	}
	var tr *trace.Tracer
	if *traceOut != "" {
		tr = trace.New()
		cfg.Trace = tr
	}
	var prof *profile.Profiler
	if *statsPath != "" || *foldedPath != "" || *breakdown {
		prof = profile.New()
		cfg.Profile = prof
	}
	if *httpAddr != "" {
		intro, err := cliutil.ServeIntrospection(*httpAddr, nil)
		if err != nil {
			return fail(err)
		}
		defer intro.Shutdown(context.Background())
		fmt.Fprintf(stderr, "distda-run: introspection on http://%s (/debug/vars, /debug/pprof/)\n", intro.Addr())
	}

	// Compile through the content-addressed cache (disk-backed under
	// -cache-dir); the key covers the strip-mined thread kernel, so -threads
	// variants hash distinctly.
	cache := cliutil.OpenCache(*cacheDir)
	res, err := exp.RunCell(context.Background(), cache, nil,
		exp.Cell{W: w, Scale: scale, Cfg: cfg, Threads: *threads}, w.NewData(), nil)
	if err != nil {
		return fail(err)
	}
	if *cacheDir != "" && cfg.HasAccel() {
		st := cache.Stats()
		fmt.Fprintf(stderr, "distda-run: cache %s: %d disk hit(s), %d compile(s)\n", *cacheDir, st.DiskHits, st.Compiles)
	}
	cliutil.FprintResult(stdout, res)
	if prof != nil {
		if *breakdown {
			fmt.Fprintln(stdout)
			fmt.Fprintln(stdout, prof.LatencyBreakdown().Render())
		}
		if *statsPath != "" {
			if err := cliutil.WriteStats(prof, *statsPath); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stderr, "distda-run: wrote stats dump to %s\n", *statsPath)
		}
		if *foldedPath != "" {
			if err := cliutil.WriteFolded(prof, *foldedPath); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stderr, "distda-run: wrote folded stacks to %s\n", *foldedPath)
		}
	}
	if tr != nil {
		if err := cliutil.WriteTrace(tr, *traceOut); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "distda-run: %s -> %s\n", tr.Summary(), *traceOut)
	}
	return cliutil.ExitOK
}

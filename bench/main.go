// Command bench is distda's end-to-end benchmark. It measures the
// reproduction from outside: it calls only the public functions of each
// layer (workloads, compiler, artifact, sim, ir, exp, report) and drives a
// real distda-serve process over HTTP through serveclient.
//
//	bash bench/run.sh --workload launch-storm --seed 1 --seconds 28 --trace 0
//
// run.sh builds this program and cmd/distda-serve from the checkout, then
// runs it from the repository root. Each run prints one "name value unit"
// line per metric and, as its last line, a JSON object with the keys
// correct, attempted, failed and metrics. It exits non-zero when any
// output is wrong. See README.md for the workloads and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"

	"distda/internal/workloads"
)

// workloadNames lists the benchmark's workloads in BENCHMARK.json order.
var workloadNames = []string{"repro-matrix", "launch-storm", "long-stream", "serve-mixed"}

// digests holds the SHA-256 of each workload's checked output, keyed
// "workload@scale". A change that alters simulated results must update
// it; the mismatch message prints the new value.
//
//go:embed digests.json
var digestsJSON []byte

var digests = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic(err) // the embedded file is part of the program
	}
	return m
}()

type options struct {
	workload string
	seed     int64
	start    time.Time     // when the run began; the budget counts from here
	seconds  time.Duration // budget for set-up and timed passes together
	trace    bool
	quick    bool
	serveBin string
	outDir   string

	scale     workloads.Scale
	setupReps int // set-ups per run; setup_s is their median
	jobs      int // serve-mixed jobs per round
	sample    int // served specs re-checked in process after the timed window
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	start := time.Now()
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: repro-matrix, launch-storm, long-stream, serve-mixed, or all")
	seed := fs.Int64("seed", 1, "seed for the serve job sequence and the cell order of each pass")
	seconds := fs.Int("seconds", 28, "time budget for set-up and the timed passes together")
	traceFlag := fs.Int("trace", 0, "1: traced run; prints the per-layer metrics and writes a Chrome trace and self-time table")
	quick := fs.Bool("quick", false, "smoke mode: test scale, one pass, one round of 50 jobs")
	serveBin := fs.String("serve-bin", ".bench_build/bin/distda-serve", "distda-serve binary for serve-mixed")
	outDir := fs.String("out", ".bench_build/trace", "directory for traced-run output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	o := options{workload: *workload, seed: *seed, start: start, seconds: time.Duration(*seconds) * time.Second,
		trace: *traceFlag == 1, quick: *quick, serveBin: *serveBin, outDir: *outDir,
		scale: workloads.ScaleBench, setupReps: 7, jobs: 1000, sample: 32}
	switch {
	case o.trace:
		o.setupReps = 1 // a traced run does not report setup_s
	case o.workload == "repro-matrix":
		o.setupReps = 3 // a set-up costs about 0.3 s, a pass about 11 s
	}
	if o.quick {
		o.scale, o.setupReps, o.jobs, o.sample = workloads.ScaleTest, 1, 50, 8
	}
	if o.workload == "all" {
		return runAll(args, stdout, stderr)
	}

	r := newReport()
	var t *tracer
	if o.trace {
		t = newTracer()
	}
	pr, err := newProbe()
	if err == nil {
		switch o.workload {
		case "repro-matrix":
			err = runRepro(o, t, pr, r)
		case "launch-storm":
			err = runSimWorkload(o, t, pr, launchStormCells, r)
		case "long-stream":
			err = runSimWorkload(o, t, pr, longStreamCells, r)
		case "serve-mixed":
			err = runServe(o, t, pr, r)
		default:
			err = fmt.Errorf("unknown workload %q (want one of %v or all)", o.workload, workloadNames)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s seed %d scale %s\n", o.workload, o.seed, o.scale)
	names := endToEndMetrics
	if o.trace {
		names = perLayerMetrics
		if err := writeTraceFiles(o.outDir, o.workload, t, stdout); err != nil {
			fmt.Fprintf(stderr, "bench: trace: %v\n", err)
			return 1
		}
	}
	r.note("run took %.1f s of a %.0f s budget", time.Since(o.start).Seconds(), o.seconds.Seconds())
	if err := r.write(stdout, names); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !r.correct() {
		return 1
	}
	return 0
}

// runAll runs every workload in a fresh child process of this program, so
// peak RSS and GC state stay separate, and fails if any child fails.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloadNames {
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w, err)
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				return 1
			}
			code = 1
		}
	}
	return code
}

// passLoop calls pass with i = 0, 1, ... until the time budget is spent:
// at least once (twice in a traced run, which alternates untraced and
// traced passes), and again only while one more pass of the median length
// so far would still end within the budget, which counts from the start
// of the run and so includes set-up. A quick run stops at the minimum.
func passLoop(o options, pass func(i int) error) error {
	minPasses := 1
	if o.trace {
		minPasses = 2
	}
	var took []float64
	for i := 0; ; i++ {
		if i >= minPasses && (o.quick || time.Since(o.start).Seconds()+median(took) > o.seconds.Seconds()) {
			return nil
		}
		t0 := time.Now()
		if err := pass(i); err != nil {
			return err
		}
		took = append(took, time.Since(t0).Seconds())
	}
}

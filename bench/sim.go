package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"distda/internal/artifact"
	"distda/internal/compiler"
	"distda/internal/ir"
	"distda/internal/sim"
	"distda/internal/workloads"
)

// cellSpec names one (workload, configuration) cell of a sim workload.
type cellSpec struct {
	workload string
	config   func() sim.Config
}

func (c cellSpec) key() string { return c.workload + "/" + c.config().Name }

func cross(names []string, configs ...func() sim.Config) []cellSpec {
	var out []cellSpec
	for _, n := range names {
		for _, c := range configs {
			out = append(out, cellSpec{workload: n, config: c})
		}
	}
	return out
}

// The two sim workloads. launch-storm offloads ~37.7k short launches per
// pass, so per-launch set-up dominates; long-stream runs 206 long
// launches (~23M simulated cycles), so per-cycle Step cost dominates and
// launch set-up is close to 0.
var (
	launchStormCells = cross([]string{"cholesky", "pagerank"}, sim.DistDAIO, sim.DistDAF)
	longStreamCells  = cross([]string{"bfs", "pointer-chase", "pathfinder"}, sim.OoO, sim.DistDAIO, sim.DistDAF)
)

// constructors maps the workload names above to their public
// constructors, so a set-up builds only the kernels it runs.
var constructors = map[string]func(workloads.Scale) *workloads.Workload{
	"cholesky":      workloads.Cholesky,
	"pagerank":      workloads.Pagerank,
	"bfs":           workloads.BFS,
	"pointer-chase": workloads.PointerChase,
	"pathfinder":    workloads.Pathfinder,
}

// cellInput is everything one RunPrecompiled call needs.
type cellInput struct {
	spec     cellSpec
	w        *workloads.Workload
	cfg      sim.Config
	compiled *compiler.Compiled
	prog     *ir.Program
	data     map[string][]float64
}

// prepare builds the inputs of every cell in sorted order: fresh workload
// instances (some generators draw from a per-instance RNG on every
// NewData, so fresh instances give every pass the same inputs), one data
// set per cell, and compiled artifacts and bytecode programs through
// cache. validate selects the simulator's built-in reference check.
func prepare(t *tracer, parent int, scale workloads.Scale, specs []cellSpec, cache *artifact.Cache, validate bool) ([]cellInput, error) {
	ws := map[string]*workloads.Workload{}
	out := make([]cellInput, len(specs))
	for i, spec := range specs {
		w := ws[spec.workload]
		if w == nil {
			s := t.begin(parent, "workloads.New", spec.workload, 0)
			w = constructors[spec.workload](scale)
			t.end(s)
			ws[spec.workload] = w
		}
		s := t.begin(parent, "workloads.NewData", spec.key(), 0)
		out[i] = cellInput{spec: spec, w: w, data: w.NewData()}
		t.end(s)
	}
	for i := range out {
		c := &out[i]
		var err error
		c.compiled, c.prog, err = compileCell(t, parent, 0, cache, scale, c.w, c.spec.config())
		if err != nil {
			return nil, err
		}
		if c.cfg, err = sim.NewConfig(c.spec.config, sim.WithProgram(c.prog), sim.WithValidation(validate)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// compileCell fetches a cell's offload artifact (none for OoO) and its
// bytecode program through cache, as exp.Build does for each cell.
func compileCell(t *tracer, parent, tid int, cache *artifact.Cache, scale workloads.Scale,
	w *workloads.Workload, cfg sim.Config) (*compiler.Compiled, *ir.Program, error) {
	key := w.Name + "/" + cfg.Name
	var compiled *compiler.Compiled
	if cfg.HasAccel() {
		copts := sim.CompileOptions(cfg)
		s := t.begin(parent, "artifact.GetOrCompile", key, tid)
		var err error
		compiled, err = cache.GetOrCompile(artifact.Key(w.Name, scale.String(), w.Kernel, copts), w.Kernel,
			func() (*compiler.Compiled, error) {
				cs := t.begin(s, "compiler.Compile", key, tid)
				defer t.end(cs)
				return compiler.Compile(w.Kernel, copts)
			})
		t.end(s)
		if err != nil {
			return nil, nil, fmt.Errorf("compile %s: %w", key, err)
		}
	}
	s := t.begin(parent, "artifact.GetOrProgram", key, tid)
	prog, err := cache.GetOrProgram(artifact.ProgramKey(w.Name, scale.String(), w.Kernel), w.Kernel)
	t.end(s)
	if err != nil {
		return nil, nil, fmt.Errorf("program %s: %w", key, err)
	}
	return compiled, prog, nil
}

// passStats is what one timed pass measured. Its times are scaled to the
// nominal host (see probe); scale is the factor that was applied.
type passStats struct {
	wall, cpu time.Duration
	cells     []time.Duration // per-cell latency, in sorted cell order
	results   []*sim.Result   // in sorted cell order
	gs        goStats
	scale     float64
	traceRoot int // the pass's root span, when traced
}

// applyScale scales the pass's times by one factor.
func (p *passStats) applyScale(f float64) {
	p.scale = f
	p.wall = time.Duration(float64(p.wall) * f)
	p.cpu = time.Duration(float64(p.cpu) * f)
	for i := range p.cells {
		p.cells[i] = time.Duration(float64(p.cells[i]) * f)
	}
}

func (p passStats) instructions() (instr, cycles, launches int64) {
	for _, r := range p.results {
		instr += r.Instructions()
		cycles += r.Cycles
		launches += r.Launches
	}
	return
}

// runCells simulates every cell once, in the seeded order, sampling the
// host-speed probe before each cell and after the last; each cell's time
// is scaled by the mean of the samples on either side of it, and the
// pass's CPU time by the pass's overall factor. Untraced, a cell is what
// distda-run does: RunPrecompiled with the built-in reference check.
// Traced, the check is split out into its public calls (RunPrecompiled
// with validation off, Program.Run on a copy of the inputs, and a
// compare) so its cost shows as its own layer.
func runCells(t *tracer, parent int, in []cellInput, order []int, pr *probe) (passStats, error) {
	st := passStats{cells: make([]time.Duration, len(in)), results: make([]*sim.Result, len(in)), traceRoot: parent}
	ms0 := readGoStats()
	var raw, cpu time.Duration
	pr.sample()
	for _, i := range order {
		c := in[i]
		before := pr.mark() - 1
		c0, cpu0 := time.Now(), cpuTime()
		var res *sim.Result
		var err error
		if t == nil {
			res, err = sim.RunPrecompiled(c.w.Kernel, c.w.Params, c.data, c.cfg, c.compiled)
		} else {
			cell := t.begin(parent, "bench.cell", c.spec.key(), 0)
			res, err = runSplit(t, cell, 0, c.w, c.cfg, c.prog, c.compiled, c.data)
			t.end(cell)
		}
		d := time.Since(c0)
		cpu += cpuTime() - cpu0
		if err != nil {
			return st, fmt.Errorf("%s: %w", c.spec.key(), err)
		}
		pr.sample()
		raw += d
		st.cells[i] = time.Duration(float64(d) * pr.scale(before))
		st.wall += st.cells[i]
		st.results[i] = res
	}
	st.scale = float64(st.wall) / float64(raw)
	st.cpu = time.Duration(float64(cpu) * st.scale)
	st.gs = goStatsDelta(ms0, readGoStats())
	return st, nil
}

// runSplit is one traced cell: the simulation with validation off, then
// the reference run and comparison that ValidateEvery would do inside it.
func runSplit(t *tracer, cell, tid int, w *workloads.Workload, cfg sim.Config,
	prog *ir.Program, compiled *compiler.Compiled, data map[string][]float64) (*sim.Result, error) {
	key := w.Name + "/" + cfg.Name
	ref := cloneData(data)
	cfg, err := sim.NewConfig(func() sim.Config { return cfg }, sim.WithValidation(false))
	if err != nil {
		return nil, err
	}
	s := t.begin(cell, "sim.RunPrecompiled", key, tid)
	res, err := sim.RunPrecompiled(w.Kernel, w.Params, data, cfg, compiled)
	t.end(s)
	if err != nil {
		return nil, err
	}
	s = t.begin(cell, "ir.Program.Run", key, tid)
	_, err = prog.Run(w.Params, ref, nil)
	t.end(s)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	if err := compareData(data, ref); err != nil {
		return nil, err
	}
	res.Validated = true
	return res, nil
}

func cloneData(data map[string][]float64) map[string][]float64 {
	out := make(map[string][]float64, len(data))
	for k, v := range data {
		out[k] = append([]float64(nil), v...)
	}
	return out
}

// compareData applies the simulator's own validation rule: every object
// matches the reference to a relative 1e-9.
func compareData(got, want map[string][]float64) error {
	for name, w := range want {
		g := got[name]
		if len(g) != len(w) {
			return fmt.Errorf("object %q missing or mis-sized", name)
		}
		for i := range w {
			if d := math.Abs(g[i] - w[i]); d > 1e-9*math.Max(math.Max(math.Abs(g[i]), math.Abs(w[i])), 1) {
				return fmt.Errorf("object %q diverges at [%d]: got %g, want %g", name, i, g[i], w[i])
			}
		}
	}
	return nil
}

// resultsDigest hashes results in sorted cell order, so it does not
// depend on the seeded run order.
func resultsDigest(keys []string, results []*sim.Result) (string, error) {
	h := sha256.New()
	for i, r := range results {
		raw, err := json.Marshal(r)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\n%s\n", keys[i], raw)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// runSimWorkload measures launch-storm or long-stream.
func runSimWorkload(o options, t *tracer, pr *probe, specs []cellSpec, r *report) error {
	keys := make([]string, len(specs))
	for i, s := range specs {
		keys[i] = s.key()
	}
	rng := rand.New(rand.NewSource(o.seed))

	// Set-up, several times: build the inputs and compile from a cold
	// cache, then a warm-up pass at test scale, which lets lazy set-up
	// finish before timing.
	var setups []float64
	var cache *artifact.Cache
	from := pr.mark()
	for i := 0; i < o.setupReps; i++ {
		pr.sample()
		cache = artifact.New(artifact.Config{})
		root := t.begin(0, "bench.setup", "", 0)
		t0 := time.Now()
		if _, err := prepare(t, root, o.scale, specs, cache, true); err != nil {
			return err
		}
		t.end(root)
		warm, err := prepare(nil, 0, workloads.ScaleTest, specs, artifact.New(artifact.Config{}), true)
		if err != nil {
			return err
		}
		if _, err := runCells(nil, 0, warm, rng.Perm(len(warm)), nil); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == 0 && t != nil {
			recordSetupLayers(t, root, cache.Stats(), r)
		}
	}
	pr.sample()
	r.set("setup_s", median(setups)*pr.scale(from))
	r.note("set-up done after %.1f s, peak RSS %.1f MB", time.Since(o.start).Seconds(), peakRSSMB())

	var passes, traced []passStats
	want := digests[o.workload+"@"+o.scale.String()]
	pass := func(i int) error {
		traceThis := t != nil && i%2 == 1
		var tt *tracer
		root := 0
		if traceThis {
			tt = t
			root = t.begin(0, "bench.pass", fmt.Sprint(i), 0)
			defer t.end(root)
		}
		in, err := prepare(tt, root, o.scale, specs, cache, !traceThis)
		if err != nil {
			return err
		}
		r.attempted += len(in)
		st, err := runCells(tt, root, in, rng.Perm(len(in)), pr)
		if err != nil {
			r.failed++
			return err
		}
		got, err := resultsDigest(keys, st.results)
		if err != nil {
			return err
		}
		if got != want {
			r.fail("%s pass %d: results digest %s, want %s", o.workload, i, got, want)
		}
		for k, res := range st.results {
			if !res.Validated {
				r.fail("%s: not validated", keys[k])
			}
		}
		r.note("pass %d: wall %.3f s, scale %.3f, traced %t", i, st.wall.Seconds(), st.scale, traceThis)
		if traceThis {
			traced = append(traced, st)
		} else {
			passes = append(passes, st)
		}
		return nil
	}
	if err := passLoop(o, pass); err != nil {
		return err
	}

	instr, _, _ := passes[0].instructions()
	recordPasses(r, passes, instr)
	if t != nil {
		last := traced[len(traced)-1]
		recordSimLayers(t, last, r)
		r.set("bench.trace_overhead_pct", overheadPct(passes, traced))
	}
	return nil
}

// recordPasses sets the end-to-end metrics every pass-based workload
// shares. There are too few cells for a p99 with ten samples beyond it,
// so job_p99_ms is the slowest cell's median latency and job_p50_ms the
// median of the per-cell medians.
func recordPasses(r *report, passes []passStats, instr int64) {
	var walls, cpus, scales []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		scales = append(scales, p.scale)
	}
	wall := median(walls)
	r.note("host speed scale %.3f (median over %d passes; times are measured times × scale)", median(scales), len(passes))
	ncells := len(passes[0].cells)
	r.set("wall_s", wall)
	r.set("cpu_s", median(cpus))
	r.set("peak_rss_mb", peakRSSMB())
	r.set("sim_mips", float64(instr)/wall/1e6)
	r.set("jobs_per_s", float64(ncells)/wall)
	perCell := make([]float64, ncells)
	for i := range perCell {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, ms(p.cells[i]))
		}
		perCell[i] = median(xs)
	}
	r.set("job_p50_ms", median(perCell))
	r.set("job_p99_ms", percentile(perCell, 100))
	passes[len(passes)-1].gs.record(r)
}

// overheadPct compares the median traced pass against the median
// untraced one.
func overheadPct(untraced, traced []passStats) float64 {
	med := func(ps []passStats) float64 {
		var xs []float64
		for _, p := range ps {
			xs = append(xs, p.wall.Seconds())
		}
		return median(xs)
	}
	u := med(untraced)
	return 100 * (med(traced) - u) / u
}

// recordSetupLayers sets the input-generation and compile metrics from
// one traced set-up.
func recordSetupLayers(t *tracer, root int, st artifact.Stats, r *report) {
	gen, _ := t.spanTotal(root, "workloads.New")
	data, _ := t.spanTotal(root, "workloads.NewData")
	compile, n := t.spanTotal(root, "compiler.Compile")
	r.set("workloads.gen_ms", ms(gen+data))
	r.set("compiler.compile_ms", ms(compile))
	r.set("compiler.compiles", float64(n))
	r.set("artifact.compile_hit_ratio", ratio(float64(st.Requests-st.Compiles), float64(st.Requests)))
}

// recordSimLayers sets the simulator and validation metrics from one
// traced pass.
func recordSimLayers(t *tracer, p passStats, r *report) {
	simT, _ := t.spanTotal(p.traceRoot, "sim.RunPrecompiled")
	irT, _ := t.spanTotal(p.traceRoot, "ir.Program.Run")
	instr, cycles, launches := p.instructions()
	ncells := float64(len(p.results))
	r.set("sim.run_ms", ms(simT))
	r.set("sim.ns_per_cycle", ratio(float64(simT), float64(cycles)))
	r.set("sim.us_per_launch", ratio(float64(simT)/1e3, float64(launches)))
	r.set("sim.allocs_per_cell", float64(p.gs.mallocs)/ncells)
	r.set("sim.alloc_mb_per_cell", p.gs.allocMB/ncells)
	r.set("sim.cycles", float64(cycles))
	r.set("sim.launches", float64(launches))
	r.set("sim.instructions", float64(instr))
	r.set("ir.validate_ms", ms(irT))
	r.set("ir.validate_share", ratio(float64(irT), float64(simT+irT)))
}

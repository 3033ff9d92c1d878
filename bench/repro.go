package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"distda/internal/artifact"
	"distda/internal/exp"
	"distda/internal/sim"
	"distda/internal/workloads"
)

// reproWorkers is the cell worker count of a repro-matrix pass, fixed
// whatever the host's CPU count so runs compare across hosts.
const reproWorkers = 2

// reproSelection is every matrix-backed section of distda-repro: figures
// 7-11b, tables 4-6 and the headline.
var reproSelection = exp.Selection{
	Figs:     []string{"7", "8", "9", "10", "11a", "11b"},
	Tabs:     []string{"4", "5", "6"},
	Headline: true,
}

// reproInputs builds the matrix workloads and one input set per cell, in
// exp.Build's serial order: the generators share RNG state across NewData
// calls, so only that order reproduces its inputs.
func reproInputs(t *tracer, parent int, scale workloads.Scale) ([]*workloads.Workload, []sim.Config, [][]map[string][]float64) {
	s := t.begin(parent, "workloads.All", "", 0)
	ws := workloads.All(scale)
	t.end(s)
	cfgs := sim.AllPaperConfigs()
	data := make([][]map[string][]float64, len(ws))
	for i, w := range ws {
		data[i] = make([]map[string][]float64, len(cfgs))
		for j, cfg := range cfgs {
			s := t.begin(parent, "workloads.NewData", w.Name+"/"+cfg.Name, 0)
			data[i][j] = w.NewData()
			t.end(s)
		}
	}
	return ws, cfgs, data
}

// reproSetup generates the matrix inputs and compiles every cell from a
// cold cache: the set-up work exp.Build does before and around its cells.
func reproSetup(t *tracer, parent int, scale workloads.Scale) (*artifact.Cache, error) {
	cache := artifact.New(artifact.Config{})
	ws, cfgs, _ := reproInputs(t, parent, scale)
	for _, w := range ws {
		for _, cfg := range cfgs {
			if _, _, err := compileCell(t, parent, 0, cache, scale, w, cfg); err != nil {
				return nil, err
			}
		}
	}
	return cache, nil
}

func renderDigest(out []byte) string {
	sum := sha256.Sum256(out)
	return hex.EncodeToString(sum[:])
}

// runRepro measures repro-matrix: the full 12x6 exp.Build on two workers
// plus the rendering of every matrix-backed section, as distda-repro runs
// it. A pass starts from a cold compile cache, like a fresh distda-repro.
func runRepro(o options, t *tracer, pr *probe, r *report) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(o.seed))

	// Set-up, several times: generate the inputs and compile every cell
	// from a cold cache, then a warm-up build and render at test scale,
	// which lets lazy set-up finish before timing.
	var setups []float64
	from := pr.mark()
	for i := 0; i < o.setupReps; i++ {
		pr.sample()
		root := t.begin(0, "bench.setup", "", 0)
		t0 := time.Now()
		cache, err := reproSetup(t, root, o.scale)
		if err != nil {
			return err
		}
		t.end(root)
		var events []exp.ProgressEvent
		if _, _, _, _, err := reproPass(ctx, workloads.ScaleTest, &events); err != nil {
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

	want := digests["repro-matrix@"+o.scale.String()]
	check := func(i int, m *exp.Matrix, out []byte) {
		if n := m.DegradedCount(); n > 0 {
			r.fail("repro-matrix pass %d: %d degraded cells", i, n)
		}
		if got := renderDigest(out); got != want {
			r.fail("repro-matrix pass %d: rendered digest %s, want %s", i, got, want)
		}
	}
	var passes, traced []passStats
	var lastEvents []exp.ProgressEvent
	var lastRender, lastBuild time.Duration
	// A pass cannot be split, so the probe samples bracket it. A traced run
	// must make two passes whatever the budget and reports no bounded
	// metric, so it takes one sample a side to stay near the budget.
	bracket := 5
	if t != nil {
		bracket = 1
	}
	pass := func(i int) error {
		from := pr.mark()
		pr.samplesN(bracket)
		traceThis := t != nil && i%2 == 1
		var st passStats
		var m *exp.Matrix
		var out []byte
		var err error
		if traceThis {
			root := t.begin(0, "bench.pass", fmt.Sprint(i), 0)
			st, m, out, err = reproTraced(t, root, o.scale, rng)
			t.end(root)
		} else {
			var events []exp.ProgressEvent
			var build time.Duration
			st, m, out, build, err = reproPass(ctx, o.scale, &events)
			lastEvents, lastRender, lastBuild = events, st.wall-build, build
		}
		if err != nil {
			return err
		}
		pr.samplesN(bracket)
		st.applyScale(pr.scale(from))
		r.note("pass %d: wall %.3f s, scale %.3f, traced %t", i, st.wall.Seconds(), st.scale, traceThis)
		if traceThis {
			traced = append(traced, st)
		} else {
			passes = append(passes, st)
		}
		r.attempted += len(m.Workloads) * len(m.Configs)
		check(i, m, out)
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
		var cells []float64
		var busy time.Duration
		for _, ev := range lastEvents {
			cells = append(cells, ms(ev.Dur))
			busy += ev.Dur
		}
		r.set("exp.cell_p50_ms", median(cells))
		r.set("exp.cell_max_ms", percentile(cells, 100))
		r.set("exp.worker_busy_ratio", ratio(float64(busy), float64(reproWorkers*lastBuild)))
		r.set("report.render_ms", ms(lastRender))
		r.set("bench.trace_overhead_pct", overheadPct(passes, traced))
	}
	return nil
}

// reproPass is one untraced repro-matrix pass: exp.Build from a cold
// compile cache, then the rendering. It returns the build's share of the
// wall time and collects the build's progress events.
func reproPass(ctx context.Context, scale workloads.Scale, events *[]exp.ProgressEvent) (passStats, *exp.Matrix, []byte, time.Duration, error) {
	var st passStats
	ms0, cpu0, t0 := readGoStats(), cpuTime(), time.Now()
	m, err := exp.Build(ctx, exp.Options{Scale: scale, Workers: reproWorkers,
		Cache:    artifact.New(artifact.Config{}),
		Progress: func(ev exp.ProgressEvent) { *events = append(*events, ev) }})
	if err != nil {
		return st, nil, nil, 0, err
	}
	build := time.Since(t0)
	var buf bytes.Buffer
	if err := exp.RenderSelection(&buf, scale, reproSelection,
		func() (*exp.Matrix, error) { return m, nil }); err != nil {
		return st, nil, nil, 0, err
	}
	st.wall, st.cpu = time.Since(t0), cpuTime()-cpu0
	st.gs = goStatsDelta(ms0, readGoStats())
	st.cells = make([]time.Duration, len(*events))
	for _, ev := range *events {
		st.cells[ev.Index] = ev.Dur
	}
	st.results = matrixResults(m)
	return st, m, buf.Bytes(), build, nil
}

// matrixResults lists the matrix's results in serial cell order.
func matrixResults(m *exp.Matrix) []*sim.Result {
	var out []*sim.Result
	for _, w := range m.Workloads {
		for _, cfg := range m.Configs {
			out = append(out, m.Res[w.Name][cfg.Name])
		}
	}
	return out
}

// reproTraced is the traced form of one repro-matrix pass. In place of the
// single exp.Build call it drives the same 72 cells through public calls
// on reproWorkers goroutines, in the seeded order: compile through the
// artifact cache, simulate with validation off, run the reference program
// and compare. It then assembles an exp.Matrix from the results and
// renders it, so its output must match the untraced pass byte for byte.
func reproTraced(t *tracer, root int, scale workloads.Scale, rng *rand.Rand) (passStats, *exp.Matrix, []byte, error) {
	var st passStats
	ms0, cpu0, t0 := readGoStats(), cpuTime(), time.Now()
	ws, cfgs, data := reproInputs(t, root, scale)
	cache := artifact.New(artifact.Config{})
	nc := len(cfgs)
	st.results = make([]*sim.Result, len(ws)*nc)
	st.cells = make([]time.Duration, len(ws)*nc)
	errs := make([]error, len(ws)*nc)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for tid := 1; tid <= reproWorkers; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for idx := range jobs {
				w, cfg := ws[idx/nc], cfgs[idx%nc]
				c0 := time.Now()
				cell := t.begin(root, "bench.cell", w.Name+"/"+cfg.Name, tid)
				compiled, prog, err := compileCell(t, cell, tid, cache, scale, w, cfg)
				if err == nil {
					st.results[idx], err = runSplit(t, cell, tid, w, cfg, prog, compiled, cloneData(data[idx/nc][idx%nc]))
				}
				t.end(cell)
				st.cells[idx], errs[idx] = time.Since(c0), err
			}
		}(tid)
	}
	for _, idx := range rng.Perm(len(ws) * nc) {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()
	for idx, err := range errs {
		if err != nil {
			return st, nil, nil, fmt.Errorf("%s/%s: %w", ws[idx/nc].Name, cfgs[idx%nc].Name, err)
		}
	}
	m := &exp.Matrix{Scale: scale, Workloads: ws, Configs: cfgs,
		Res: map[string]map[string]*sim.Result{}, Degraded: map[string]map[string]string{}}
	for i, w := range ws {
		m.Res[w.Name] = map[string]*sim.Result{}
		for j, cfg := range cfgs {
			m.Res[w.Name][cfg.Name] = st.results[i*nc+j]
		}
	}
	// exp.RenderSelection is where the report layer's tables are built and
	// rendered; its span is attributed to "report".
	s := t.begin(root, "report.RenderSelection", "", 0)
	var buf bytes.Buffer
	err := exp.RenderSelection(&buf, scale, reproSelection, func() (*exp.Matrix, error) { return m, nil })
	t.end(s)
	if err != nil {
		return st, nil, nil, err
	}
	st.wall, st.cpu = time.Since(t0), cpuTime()-cpu0
	st.gs = goStatsDelta(ms0, readGoStats())
	st.traceRoot = root
	return st, m, buf.Bytes(), nil
}

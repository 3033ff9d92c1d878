package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"distda/internal/cliutil"
	"distda/internal/serve"
	"distda/internal/serveclient"
	"distda/internal/sim"
	"distda/internal/workloads"
)

// serveClients is the number of closed-loop clients: each sends its next
// job only once the previous one's result bytes arrived, with no think
// time. Fixed whatever the host's CPU count.
const serveClients = 2

// jobResult is one served job as the client saw it.
type jobResult struct {
	id                      string
	spec                    serve.JobSpec
	cached, coalesced       bool
	latency                 time.Duration // submit to result bytes
	submit, wait, getResult time.Duration
	scale                   float64 // host-speed factor of the job's batch (see probe)
	out                     []byte
	err                     error
	waitSpan                int // traced: the span of the Wait call
}

// server is one spawned distda-serve process.
type server struct {
	cmd    *exec.Cmd
	done   chan struct{} // closed once the process has exited
	client *serveclient.Client
	base   string
}

// listenAddr watches the server's log for the address it listens on and
// discards everything else. exec calls Write from one goroutine.
type listenAddr struct {
	buf  []byte
	addr chan<- string // receives the address once, then set to nil
}

func (l *listenAddr) Write(p []byte) (int, error) {
	if l.addr == nil {
		return len(p), nil
	}
	l.buf = append(l.buf, p...)
	const marker = "listening on http://"
	if i := bytes.Index(l.buf, []byte(marker)); i >= 0 {
		rest := l.buf[i+len("listening on "):]
		if j := bytes.IndexAny(rest, " \n"); j >= 0 {
			l.addr <- string(rest[:j])
			l.addr, l.buf = nil, nil
		}
	}
	return len(p), nil
}

// startServer spawns distda-serve with its default flags on a free
// loopback port and returns once /readyz answers 200.
func startServer(ctx context.Context, bin string) (*server, error) {
	addr := make(chan string, 1)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stderr = &listenAddr{addr: addr}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is read from ProcessState in stop
		close(s.done)
	}()
	select {
	case s.base = <-addr:
	case <-s.done:
		return nil, fmt.Errorf("%s exited before listening", bin)
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("%s did not start listening", bin)
	}
	s.client = serveclient.New(s.base)
	deadline := time.Now().Add(10 * time.Second)
	for s.client.Ready(ctx) != nil {
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("%s never became ready", bin)
		}
		time.Sleep(time.Millisecond)
	}
	return s, nil
}

// stop drains the server with SIGTERM, kills it if the drain hangs, waits
// for it to exit, and returns its resource usage.
func (s *server) stop() *syscall.Rusage {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	ru, _ := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru
}

// debugVars fetches the server's Go runtime counters from /debug/vars.
func (s *server) debugVars(ctx context.Context) (memStats, error) {
	var v struct {
		MemStats memStats `json:"memstats"`
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/debug/vars", nil)
	if err != nil {
		return v.MemStats, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return v.MemStats, err
	}
	defer resp.Body.Close()
	return v.MemStats, json.NewDecoder(resp.Body).Decode(&v)
}

type memStats struct {
	NumGC        uint32
	PauseTotalNs uint64
	TotalAlloc   uint64
	Mallocs      uint64
}

// round is what one serve-mixed round measured. wall, cpu and setup are
// scaled to the nominal host; scale is the round's overall factor.
type round struct {
	scale            float64
	setup, wall, cpu time.Duration
	rssMB            float64
	jobs             []jobResult
	stats            serve.Stats
	queueWaitMS      float64
	mem              memStats
	traceRoot        int
}

// batchJobs is how many jobs the clients send between two host-speed
// probe samples. The clients finish a batch before the probe runs, so the
// probe never competes with the server.
const batchJobs = 100

// runRound starts a fresh server, sends the job sequence from the
// closed-loop clients in batches with a probe sample between batches,
// collects the server's counters, and stops it. Traced, it records a span
// per client call and, after the timed part, fetches each executed job's
// lifecycle spans from the server.
func runRound(ctx context.Context, o options, t *tracer, pr *probe, root int, seq []serve.JobSpec) (round, error) {
	var rd round
	rd.traceRoot = root
	pr.sample()
	setupScale := pr.scale(pr.mark() - 1)
	t0 := time.Now()
	srv, err := startServer(ctx, o.serveBin)
	if err != nil {
		return rd, err
	}
	rd.setup = time.Duration(float64(time.Since(t0)) * setupScale)
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()

	rd.jobs = make([]jobResult, len(seq))
	var raw time.Duration
	for lo := 0; lo < len(seq); lo += batchJobs {
		hi := min(lo+batchJobs, len(seq))
		before := pr.mark() - 1
		var next atomic.Int64
		next.Store(int64(lo))
		var wg sync.WaitGroup
		start := time.Now()
		for c := 1; c <= serveClients; c++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= hi {
						return
					}
					rd.jobs[i] = submitJob(ctx, srv.client, t, root, tid, seq[i])
				}
			}(c)
		}
		wg.Wait()
		d := time.Since(start)
		pr.sample()
		f := pr.scale(before)
		raw += d
		rd.wall += time.Duration(float64(d) * f)
		for i := lo; i < hi; i++ {
			rd.jobs[i].scale = f
		}
	}
	rd.scale = float64(rd.wall) / float64(raw)

	if rd.stats, err = srv.client.Stats(ctx); err != nil {
		return rd, err
	}
	met, err := srv.client.Metrics(ctx)
	if err != nil {
		return rd, err
	}
	var sum, count float64
	for k, v := range met {
		switch {
		case strings.HasPrefix(k, "distda_job_queue_wait_seconds_sum"):
			sum += v
		case strings.HasPrefix(k, "distda_job_queue_wait_seconds_count"):
			count += v
		}
	}
	rd.queueWaitMS = 1e3 * ratio(sum, count)
	if rd.mem, err = srv.debugVars(ctx); err != nil {
		return rd, err
	}
	if t != nil {
		for _, j := range rd.jobs {
			if j.err == nil && !j.cached {
				if err := addServerSpans(ctx, srv.client, t, j); err != nil {
					return rd, err
				}
			}
		}
	}
	stopped = true
	if ru := srv.stop(); ru != nil {
		rd.cpu = time.Duration(float64(ru.Utime.Nano()+ru.Stime.Nano()) * rd.scale)
		rd.rssMB = float64(ru.Maxrss) / 1024
	}
	return rd, nil
}

// submitJob sends one job and reads its result: a result-cache hit comes
// back done from the submit call; anything else is followed over the
// server-sent event stream until it finishes.
func submitJob(ctx context.Context, c *serveclient.Client, t *tracer, root, tid int, spec serve.JobSpec) jobResult {
	j := jobResult{spec: spec}
	job := t.begin(root, "bench.job", "", tid)
	defer t.end(job)
	t0 := time.Now()
	s := t.begin(job, "serveclient.Submit", "", tid)
	st, err := c.Submit(ctx, spec)
	t.end(s)
	j.submit = time.Since(t0)
	if err != nil {
		j.err = err
		return j
	}
	j.id, j.cached, j.coalesced = st.ID, st.Cached, st.Coalesced
	t.setKey(job, st.ID)
	if st.State != serve.StateDone {
		w0 := time.Now()
		j.waitSpan = t.begin(job, "serveclient.Wait", st.ID, tid)
		fin, err := c.Wait(ctx, st.ID, nil)
		t.end(j.waitSpan)
		j.wait = time.Since(w0)
		if err == nil && fin.State != serve.StateDone {
			err = fmt.Errorf("job %s ended %s: %s", st.ID, fin.State, fin.Error)
		}
		if err != nil {
			j.err = err
			return j
		}
		j.coalesced = fin.Coalesced
	}
	r0 := time.Now()
	s = t.begin(job, "serveclient.Result", st.ID, tid)
	j.out, j.err = c.Result(ctx, st.ID)
	t.end(s)
	j.getResult = time.Since(r0)
	j.latency = time.Since(t0)
	return j
}

// serverStages maps the server's job lifecycle spans to the layer that
// does the work in them.
var serverStages = map[string]string{
	"queued":    "serve.queued",
	"executing": "serve.executing",
	"compile":   "compiler.Compile",
	"simulate":  "sim.RunPrecompiled",
	"rendering": "report.FprintResult",
}

// addServerSpans fetches a job's lifecycle spans from the server and
// records them under the client's Wait span, with compile, simulate and
// rendering nested in executing.
func addServerSpans(ctx context.Context, c *serveclient.Client, t *tracer, j jobResult) error {
	raw, err := c.Trace(ctx, j.id)
	if err != nil {
		return err
	}
	var events []struct {
		Name string  `json:"name"`
		Dur  float64 `json:"dur"`
		Args struct {
			Start string `json:"start"`
		} `json:"args"`
	}
	if err := json.Unmarshal(raw, &events); err != nil {
		return fmt.Errorf("trace of %s: %w", j.id, err)
	}
	parent := j.waitSpan
	executing := parent
	for _, ev := range events {
		name, ok := serverStages[ev.Name]
		if !ok || ev.Dur == 0 {
			continue
		}
		start, err := time.Parse(time.RFC3339Nano, ev.Args.Start)
		if err != nil {
			return fmt.Errorf("trace of %s: %w", j.id, err)
		}
		end := start.Add(time.Duration(ev.Dur * 1e3))
		p := parent
		if ev.Name != "queued" && ev.Name != "executing" {
			p = executing
		}
		id := t.add(p, name, j.id, 100, start, end)
		if ev.Name == "executing" {
			executing = id
		}
	}
	return nil
}

var (
	cyclesRE   = regexp.MustCompile(`(?m)^cycles\s+(\d+)`)
	instrRE    = regexp.MustCompile(`(?m)^instructions\s+(\d+) host \+ (\d+) accel`)
	launchesRE = regexp.MustCompile(`(?m)^offloads\s+(\d+) launches`)
)

// parseRun reads the counts back out of a distda-run result block.
func parseRun(out []byte) (cycles, instr, launches int64) {
	atoi := func(b []byte) int64 {
		v, _ := strconv.ParseInt(string(b), 10, 64)
		return v
	}
	if m := cyclesRE.FindSubmatch(out); m != nil {
		cycles = atoi(m[1])
	}
	if m := instrRE.FindSubmatch(out); m != nil {
		instr = atoi(m[1]) + atoi(m[2])
	}
	if m := launchesRE.FindSubmatch(out); m != nil {
		launches = atoi(m[1])
	}
	return
}

// localRun renders a run job in process, as distda-run would.
func localRun(spec serve.JobSpec) ([]byte, error) {
	w, err := cliutil.LookupWorkload(spec.Workload, workloads.ScaleTest)
	if err != nil {
		return nil, err
	}
	cfg, err := cliutil.LookupConfig(spec.Config)
	if err != nil {
		return nil, err
	}
	if spec.GHz != 0 {
		cfg = cfg.WithClock(spec.GHz)
	}
	res, err := sim.RunThreads(w.Kernel, w.Params, w.NewData(), cfg, spec.Threads)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	cliutil.FprintResult(&buf, res)
	return buf.Bytes(), nil
}

// runServe measures serve-mixed. Every round starts a fresh distda-serve,
// so each sees the same cold caches and the same hit/miss mix, and sends
// the same seeded job sequence.
func runServe(o options, t *tracer, pr *probe, r *report) error {
	// Bounds every client call, so a wedged server ends the run with an
	// error instead of hanging it.
	ctx, cancel := context.WithTimeout(context.Background(), o.seconds+2*time.Minute)
	defer cancel()
	seq := jobSequence(o.seed, o.jobs)

	first := map[string][]byte{} // spec key → first reply
	var rounds, traced []round
	pass := func(i int) error {
		var tt *tracer
		root := 0
		if t != nil && i%2 == 1 {
			tt = t
			root = t.begin(0, "bench.round", fmt.Sprint(i), 0)
			defer t.end(root)
		}
		rd, err := runRound(ctx, o, tt, pr, root, seq)
		if err != nil {
			return err
		}
		r.note("round %d: wall %.3f s, scale %.3f, traced %t", i, rd.wall.Seconds(), rd.scale, tt != nil)
		r.attempted += len(rd.jobs)
		for _, j := range rd.jobs {
			if j.err != nil {
				r.failed++
				r.fail("job %s (%s): %v", j.id, specKey(j.spec), j.err)
				continue
			}
			k := specKey(j.spec)
			if prev, ok := first[k]; !ok {
				first[k] = j.out
			} else if !bytes.Equal(prev, j.out) {
				r.fail("job %s (%s): reply differs from the first reply for that spec", j.id, k)
			}
		}
		if tt != nil {
			traced = append(traced, rd)
		} else {
			rounds = append(rounds, rd)
		}
		return nil
	}
	if err := passLoop(o, pass); err != nil {
		return err
	}

	// After the timed window: a seeded sample of unique specs must match
	// an in-process run.
	var uniq []string
	for k := range first {
		uniq = append(uniq, k)
	}
	specs := map[string]serve.JobSpec{}
	for _, s := range seq {
		specs[specKey(s)] = s
	}
	sort.Strings(uniq)
	rng := rand.New(rand.NewSource(o.seed))
	rng.Shuffle(len(uniq), func(i, j int) { uniq[i], uniq[j] = uniq[j], uniq[i] })
	for _, k := range uniq[:min(o.sample, len(uniq))] {
		want, err := localRun(specs[k])
		if err != nil {
			return fmt.Errorf("in-process %s: %w", k, err)
		}
		if !bytes.Equal(want, first[k]) {
			r.fail("%s: served bytes differ from an in-process run", k)
		}
	}

	recordRounds(r, rounds)
	if t != nil {
		recordServeLayers(t, traced[len(traced)-1], r)
		r.set("bench.trace_overhead_pct", 100*(medianWall(traced)/medianWall(rounds)-1))
	}
	return nil
}

func medianWall(rds []round) float64 {
	var xs []float64
	for _, rd := range rds {
		xs = append(xs, rd.wall.Seconds())
	}
	return median(xs)
}

// recordRounds sets the end-to-end metrics, each the median over rounds.
// A round's 1,000 jobs leave ten samples beyond its p99.
func recordRounds(r *report, rds []round) {
	var scales, setups, walls, cpus, rss, mips, rates, p50s, p99s []float64
	for _, rd := range rds {
		var instr int64
		var lat []float64
		for _, j := range rd.jobs {
			_, in, _ := parseRun(j.out)
			instr += in
			lat = append(lat, ms(j.latency)*j.scale)
		}
		wall := rd.wall.Seconds()
		scales = append(scales, rd.scale)
		p50s = append(p50s, median(lat))
		p99s = append(p99s, tailPercentile(lat, 99))
		setups = append(setups, rd.setup.Seconds())
		walls = append(walls, wall)
		cpus = append(cpus, rd.cpu.Seconds())
		rss = append(rss, rd.rssMB)
		mips = append(mips, float64(instr)/wall/1e6)
		rates = append(rates, float64(len(rd.jobs))/wall)
	}
	r.note("host speed scale %.3f (median over %d rounds; times are measured times × scale)", median(scales), len(rds))
	r.set("setup_s", median(setups))
	r.set("wall_s", median(walls))
	r.set("cpu_s", median(cpus))
	r.set("peak_rss_mb", median(rss))
	r.set("sim_mips", median(mips))
	r.set("jobs_per_s", median(rates))
	r.set("job_p50_ms", median(p50s))
	r.set("job_p99_ms", median(p99s))
}

// recordServeLayers sets the per-layer metrics from one traced round.
func recordServeLayers(t *tracer, rd round, r *report) {
	root := rd.traceRoot
	compile, _ := t.spanTotal(root, "compiler.Compile")
	simT, _ := t.spanTotal(root, "sim.RunPrecompiled")
	render, _ := t.spanTotal(root, "report.FprintResult")
	var cycles, instr, launches int64
	var submit, wait, res, hit, miss []float64
	execs := 0
	for _, j := range rd.jobs {
		submit = append(submit, ms(j.submit))
		res = append(res, ms(j.getResult))
		if j.cached {
			hit = append(hit, ms(j.latency))
			continue
		}
		wait = append(wait, ms(j.wait))
		miss = append(miss, ms(j.latency))
		if !j.coalesced {
			c, in, l := parseRun(j.out)
			cycles, instr, launches, execs = cycles+c, instr+in, launches+l, execs+1
		}
	}
	cc, rc := rd.stats.CompileCache, rd.stats.ResultCache
	r.set("compiler.compile_ms", ms(compile))
	r.set("compiler.compiles", float64(cc.Compiles))
	r.set("artifact.compile_hit_ratio", ratio(float64(cc.Requests-cc.Compiles), float64(cc.Requests)))
	r.set("artifact.result_hit_ratio", ratio(float64(rc.MemHits+rc.DiskHits), float64(rc.Requests)))
	r.set("sim.run_ms", ms(simT))
	r.set("sim.ns_per_cycle", ratio(float64(simT), float64(cycles)))
	r.set("sim.us_per_launch", ratio(float64(simT)/1e3, float64(launches)))
	r.set("sim.allocs_per_cell", ratio(float64(rd.mem.Mallocs), float64(execs)))
	r.set("sim.alloc_mb_per_cell", ratio(float64(rd.mem.TotalAlloc)/(1<<20), float64(execs)))
	r.set("sim.cycles", float64(cycles))
	r.set("sim.launches", float64(launches))
	r.set("sim.instructions", float64(instr))
	r.set("report.render_ms", ms(render))
	r.set("serve.submit_ms", median(submit))
	r.set("serve.wait_ms", median(wait))
	r.set("serve.result_ms", median(res))
	r.set("serve.hit_p50_ms", median(hit))
	r.set("serve.miss_p50_ms", median(miss))
	r.set("serve.queue_wait_ms", rd.queueWaitMS)
	r.set("serve.coalesced", float64(rd.stats.Coalesced))
	r.set("go.gc_cycles", float64(rd.mem.NumGC))
	r.set("go.gc_pause_ms", float64(rd.mem.PauseTotalNs)/1e6)
	r.set("go.alloc_mb", float64(rd.mem.TotalAlloc)/(1<<20))
}

// Package serve implements the distda-serve job server: a long-running
// HTTP service that accepts experiment jobs (one workload × configuration
// run, or a §VI reproduction matrix selection) as JSON, executes them on a
// bounded worker pool with per-tenant fairness and rate limiting, and
// returns rendered results that are byte-identical to the equivalent
// distda-run / distda-repro batch invocation.
//
// Results are content-addressed with artifact.ResultKey, so an identical
// re-submission — same scale, configuration, kernel text, selection — is
// served from the result cache without recomputing, across requests,
// tenants and server restarts.
package serve

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"distda/internal/artifact"
	"distda/internal/cliutil"
	"distda/internal/exp"
	"distda/internal/ir"
	"distda/internal/sim"
	"distda/internal/workloads"
)

// Job kinds.
const (
	// KindRun executes one workload under one configuration and renders
	// the distda-run result block.
	KindRun = "run"
	// KindMatrix builds the experiment matrix (as needed) and renders a
	// distda-repro table/figure selection.
	KindMatrix = "matrix"
)

// JobSpec is the request body for POST /api/v1/jobs. Exactly the knobs the
// batch CLIs expose travel here, so every job has a byte-identical
// command-line equivalent.
type JobSpec struct {
	// Kind selects the job type: "run" or "matrix". Defaults to "run"
	// when a workload is named and "matrix" otherwise.
	Kind string `json:"kind,omitempty"`
	// Tenant is the fairness/rate-limit bucket this job bills to.
	// Defaults to "anonymous".
	Tenant string `json:"tenant,omitempty"`
	// Scale is the input scale: test, bench or paper (default bench, like
	// the CLIs).
	Scale string `json:"scale,omitempty"`

	// Run-job fields (Kind == "run").
	Workload string `json:"workload,omitempty"`
	// Config names the hardware configuration (default Dist-DA-F,
	// case-insensitive, same names as distda-run -c).
	Config  string `json:"config,omitempty"`
	Threads int    `json:"threads,omitempty"`
	GHz     int    `json:"ghz,omitempty"`
	// Kernel optionally replaces the workload's kernel with custom source
	// in the ir.Format dialect (dump a starting point with
	// distda-inspect -src). The custom kernel runs against the workload's
	// generated input objects, so it must declare compatible objects.
	Kernel string `json:"kernel,omitempty"`
	// Params overrides individual kernel parameters by name.
	Params map[string]float64 `json:"params,omitempty"`

	// Matrix-job fields (Kind == "matrix").
	Selection exp.Selection `json:"selection,omitempty"`
	// All selects everything distda-repro -all selects.
	All bool `json:"all,omitempty"`
}

// plan is a validated, fully resolved job: every name looked up, defaults
// applied, custom kernel parsed, result key derived. Planning happens at
// submission time so malformed jobs fail with 400 before queueing.
type plan struct {
	spec   JobSpec // normalized copy (defaults filled in)
	kind   string
	tenant string
	scale  workloads.Scale
	key    string // artifact.ResultKey content address

	// Run jobs. workload carries the effective kernel and parameters and
	// may be the table's shared instance: inputs come from src.inputs,
	// never from workload's own generator.
	workload *workloads.Workload
	text     string     // ir.Format(workload.Kernel)
	src      *builtin   // the named built-in workload
	cfg      sim.Config // named config with clock override applied

	// Matrix jobs.
	sel exp.Selection
}

// Backend is the resolved accelerator backend a run job launches on
// ("" for backend-less configs and for matrix jobs, which span many).
func (p *plan) Backend() string {
	if p.kind != KindRun {
		return ""
	}
	return p.cfg.Backend
}

// builtins resolves each built-in (workload, scale) once per server: the
// workload instance whose kernel every run job over it plans, keys and
// simulates, its kernel's canonical text and its parameter digest. Entries
// fill on first use and never change after. Only names in the workloads
// table get an entry, so the set is bounded by that table times the three
// scales; no request field beyond the name and scale reaches the key.
type builtins struct {
	mu sync.Mutex
	m  map[builtinKey]*builtin
}

type builtinKey struct {
	name  string
	scale workloads.Scale
}

// builtin is one resolved (workload, scale). Its workload is shared by
// concurrent runs, which only read kernels and parameters.
type builtin struct {
	once   sync.Once
	def    workloads.Builtin
	scale  workloads.Scale
	w      *workloads.Workload
	text   string // ir.Format(w.Kernel)
	params string // formatParams(w.Params)

	// The first miss over the pair fills these once; they never change
	// after. in is the pristine first input draw, which every miss
	// copies; ref is the reference program's output on it (w.Kernel
	// under w.Params), or refErr its failure.
	inOnce  sync.Once
	in      map[string][]float64
	refOnce sync.Once
	ref     map[string][]float64
	refErr  error
}

// get returns the resolved entry for name at scale, building the workload
// on the first request for the pair.
func (b *builtins) get(name string, scale workloads.Scale) (*builtin, error) {
	key := builtinKey{name, scale}
	b.mu.Lock()
	e, ok := b.m[key]
	if !ok {
		def, err := workloads.Lookup(name)
		if err != nil {
			b.mu.Unlock()
			return nil, err
		}
		if b.m == nil {
			b.m = make(map[builtinKey]*builtin)
		}
		e = &builtin{def: def, scale: scale}
		b.m[key] = e
	}
	b.mu.Unlock()
	e.once.Do(func() {
		e.w = e.def.New(e.scale)
		e.text = ir.Format(e.w.Kernel)
		e.params = formatParams(e.w.Params)
	})
	return e, nil
}

// inputs returns a private copy of the workload's first input draw, the
// inputs a batch run of the same spec simulates. The draw is made once,
// from a fresh instance: each instance's generator advances a private
// seeded source, so draws from the shared instance would differ from run
// to run.
func (e *builtin) inputs() map[string][]float64 {
	e.inOnce.Do(func() { e.in = e.def.New(e.scale).NewData() })
	out := make(map[string][]float64, len(e.in))
	for name, v := range e.in {
		out[name] = slices.Clone(v)
	}
	return out
}

// reference returns the reference program's output on the first input
// draw, running the program from cache on the first call. The map is
// shared by every run that validates against it and must not be written.
func (e *builtin) reference(cache *artifact.Cache) (map[string][]float64, error) {
	e.refOnce.Do(func() {
		prog, err := cache.GetOrProgram(artifact.ProgramKeyText(e.w.Name, e.scale.String(), e.text), e.w.Kernel)
		if err != nil {
			e.refErr = err
			return
		}
		out := e.inputs()
		if e.refErr = runReference(prog, e.w.Params, out); e.refErr == nil {
			e.ref = out
		}
	})
	return e.ref, e.refErr
}

// runReference runs a built-in's reference program; tests count its calls.
var runReference = sim.RunReference

// planJob validates and resolves a submitted spec against the server's
// built-in workload table.
func planJob(spec JobSpec, tab *builtins) (*plan, error) {
	p := &plan{spec: spec}
	if spec.Kind == "" {
		if spec.Workload != "" {
			spec.Kind = KindRun
		} else {
			spec.Kind = KindMatrix
		}
	}
	p.kind = spec.Kind
	p.tenant = spec.Tenant
	if p.tenant == "" {
		p.tenant = "anonymous"
	}
	if spec.Scale == "" {
		spec.Scale = "bench"
	}
	scale, err := cliutil.ParseScale(spec.Scale)
	if err != nil {
		return nil, err
	}
	p.scale = scale

	switch p.kind {
	case KindRun:
		if err := p.planRun(&spec, tab); err != nil {
			return nil, err
		}
	case KindMatrix:
		if err := p.planMatrix(&spec); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown job kind %q (want %q or %q)", p.kind, KindRun, KindMatrix)
	}
	p.spec = spec
	return p, nil
}

func (p *plan) planRun(spec *JobSpec, tab *builtins) error {
	if spec.Workload == "" {
		return fmt.Errorf("run job needs a workload (see distda-run -list)")
	}
	e, err := tab.get(spec.Workload, p.scale)
	if err != nil {
		return err
	}
	if spec.Config == "" {
		spec.Config = "Dist-DA-F"
	}
	cfg, err := cliutil.LookupConfig(spec.Config)
	if err != nil {
		return err
	}
	switch spec.GHz {
	case 0:
	case 1, 2, 3:
		cfg = cfg.WithClock(spec.GHz)
	default:
		return fmt.Errorf("unsupported clock %d GHz (want 1, 2 or 3)", spec.GHz)
	}
	if spec.Threads == 0 {
		spec.Threads = 1
	}
	if spec.Threads < 1 {
		return fmt.Errorf("threads must be positive, got %d", spec.Threads)
	}
	w, text, params := e.w, e.text, e.params
	if spec.Kernel != "" || len(spec.Params) > 0 {
		ov := *w
		if spec.Kernel != "" {
			if ov.Kernel, err = ir.Parse(spec.Kernel); err != nil {
				return err
			}
			text = ir.Format(ov.Kernel)
		}
		if len(spec.Params) > 0 {
			ov.Params = make(map[string]float64, len(w.Params)+len(spec.Params))
			for k, v := range w.Params {
				ov.Params[k] = v
			}
			for k, v := range spec.Params {
				ov.Params[k] = v
			}
			params = formatParams(ov.Params)
		}
		w = &ov
	}
	p.workload, p.text, p.src = w, text, e
	p.cfg = cfg

	// The content address covers everything that determines the result
	// bytes: scale and workload name pin the deterministically generated
	// inputs, the canonical config name pins the hardware model (clock
	// override included via WithClock's name suffix), and the formatted
	// kernel text plus resolved parameters pin the computation.
	p.key = artifact.ResultKey(
		KindRun,
		p.scale.String(),
		cfg.Name,
		strconv.Itoa(spec.Threads),
		w.Name,
		text,
		params,
	)
	return nil
}

func (p *plan) planMatrix(spec *JobSpec) error {
	if spec.Workload != "" || spec.Config != "" || spec.Kernel != "" {
		return fmt.Errorf("matrix jobs take a selection, not workload/config/kernel fields")
	}
	sel := spec.Selection
	if spec.All {
		sel.SetAll()
	}
	if err := sel.Validate(); err != nil {
		return err
	}
	if sel.Empty() {
		return fmt.Errorf("empty selection: pick figures/tables or set all")
	}
	p.sel = sel
	spec.Selection = sel

	// Selection order matters for the rendered bytes, so the key hashes
	// the canonical JSON encoding (fixed field order) rather than a
	// sorted view.
	selJSON, err := json.Marshal(sel)
	if err != nil {
		return err
	}
	p.key = artifact.ResultKey(KindMatrix, p.scale.String(), string(selJSON))
	return nil
}

// formatParams serializes a parameter map deterministically for hashing.
func formatParams(params map[string]float64) string {
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%g\n", k, params[k])
	}
	return b.String()
}

// Equivalent returns the batch CLI invocation that produces this job's
// exact output bytes, for the status response and the docs' byte-identity
// claim.
func (p *plan) Equivalent() string {
	switch p.kind {
	case KindRun:
		parts := []string{"distda-run", "-w", p.spec.Workload, "-c", p.spec.Config, "-scale", p.spec.Scale}
		if p.spec.GHz != 0 {
			parts = append(parts, "-ghz", strconv.Itoa(p.spec.GHz))
		}
		if p.spec.Threads != 1 {
			parts = append(parts, "-threads", strconv.Itoa(p.spec.Threads))
		}
		if p.spec.Kernel != "" || len(p.spec.Params) > 0 {
			return "" // custom kernels have no CLI equivalent
		}
		return strings.Join(parts, " ")
	case KindMatrix:
		parts := []string{"distda-repro", "-scale", p.spec.Scale}
		if p.spec.All {
			return strings.Join(append(parts, "-all"), " ")
		}
		s := p.sel
		for _, f := range s.Figs {
			parts = append(parts, "-fig", f)
		}
		for _, t := range s.Tabs {
			parts = append(parts, "-tab", t)
		}
		if s.Headline {
			parts = append(parts, "-headline")
		}
		if s.Sens {
			parts = append(parts, "-sens")
		}
		if s.Area {
			parts = append(parts, "-area")
		}
		if s.OffChip {
			parts = append(parts, "-offchip")
		}
		if s.PIM {
			parts = append(parts, "-pim")
		}
		if s.Ablations {
			parts = append(parts, "-ablations")
		}
		return strings.Join(parts, " ")
	}
	return ""
}

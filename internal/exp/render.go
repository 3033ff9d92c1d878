package exp

import (
	"context"
	"fmt"
	"io"

	"distda/internal/report"
	"distda/internal/sim"
	"distda/internal/workloads"
)

// ValidFigs lists the figure names RenderSelection understands, in the
// paper's order (the order -all renders them).
var ValidFigs = []string{"7", "8", "9", "10", "11a", "11b", "12a", "12b", "13", "14"}

// ValidTabs lists the table names RenderSelection understands.
var ValidTabs = []string{"3", "4", "5", "6"}

// Selection names the tables and figures one rendering pass emits. It is
// the job-friendly entry point into the §VI reproduction: distda-repro
// builds one from its flags and the distda-serve job server accepts one as
// JSON, so both front ends share Render and produce byte-identical output
// for the same selection.
type Selection struct {
	// Figs and Tabs render in the given order (see ValidFigs/ValidTabs).
	Figs []string `json:"figs,omitempty"`
	Tabs []string `json:"tabs,omitempty"`
	// Headline renders the abstract's headline geomeans plus the
	// data-movement table.
	Headline bool `json:"headline,omitempty"`
	// Sens renders the working-set sensitivity sweep.
	Sens bool `json:"sens,omitempty"`
	// Area renders the area model.
	Area bool `json:"area,omitempty"`
	// OffChip renders the §VII off-chip placement extension.
	OffChip bool `json:"offchip,omitempty"`
	// PIM renders the PIM-in-DRAM backend comparison (near-L3 vs in-DRAM).
	PIM bool `json:"pim,omitempty"`
	// Ablations renders the DESIGN.md ablation benches.
	Ablations bool `json:"ablations,omitempty"`
}

// SetAll selects everything -all selects: every figure and table plus the
// headline, sensitivity, area, off-chip, PIM and ablation sections.
func (s *Selection) SetAll() {
	s.Figs = append([]string{}, ValidFigs...)
	s.Tabs = append([]string{}, ValidTabs...)
	s.Headline = true
	s.Sens = true
	s.Area = true
	s.OffChip = true
	s.PIM = true
	s.Ablations = true
}

// Empty reports whether the selection renders nothing.
func (s Selection) Empty() bool {
	return len(s.Figs) == 0 && len(s.Tabs) == 0 && !s.Headline &&
		!s.Sens && !s.Area && !s.OffChip && !s.PIM && !s.Ablations
}

// Validate rejects unknown figure or table names before anything is
// computed, with the same diagnostics the CLI has always produced.
func (s Selection) Validate() error {
	for _, f := range s.Figs {
		if !containsName(ValidFigs, f) {
			return fmt.Errorf("unknown figure %q (want one of %v)", f, ValidFigs)
		}
	}
	for _, t := range s.Tabs {
		if !containsName(ValidTabs, t) {
			return fmt.Errorf("unknown table %q (want one of %v)", t, ValidTabs)
		}
	}
	return nil
}

func containsName(set []string, v string) bool {
	for _, s := range set {
		if s == v {
			return true
		}
	}
	return false
}

// sections lists the selection's sections in render order: tables,
// figures, headline (+ data movement), sensitivity, area, off-chip, PIM,
// ablations. Section names are "tab<N>", "fig<N>" and the Selection field
// names in lower case.
func (s Selection) sections() []string {
	var out []string
	for _, t := range s.Tabs {
		out = append(out, "tab"+t)
	}
	for _, f := range s.Figs {
		out = append(out, "fig"+f)
	}
	for _, opt := range []struct {
		on   bool
		name string
	}{{s.Headline, "headline"}, {s.Sens, "sens"}, {s.Area, "area"}, {s.OffChip, "offchip"}, {s.PIM, "pim"}, {s.Ablations, "ablations"}} {
		if opt.on {
			out = append(out, opt.name)
		}
	}
	return out
}

// matrixSections render from the §VI-A matrix.
var matrixSections = map[string]bool{
	"tab4": true, "tab5": true, "tab6": true,
	"fig7": true, "fig8": true, "fig9": true, "fig10": true, "fig11a": true, "fig11b": true,
	"headline": true,
}

// plan is every cell one selection simulates, in dispatch order: the
// matrix's cells when a matrix-backed section is selected, then each
// simulated section's cells in render order. A section selected twice
// runs once.
type plan struct {
	sections []string
	matrix   *Matrix // axes of the planned matrix; nil when none is planned
	figs     map[string]plannedFigure
	cells    []planCell
}

type plannedFigure struct {
	figure
	first int // index of the figure's first cell in plan.cells
}

// newPlan plans sel at scale. withMatrix false leaves the matrix out even
// when a matrix-backed section is selected (RenderSelection's caller
// supplies it).
func newPlan(sel Selection, scale workloads.Scale, withMatrix bool) *plan {
	p := &plan{sections: sel.sections(), figs: map[string]plannedFigure{}}
	if withMatrix && p.needsMatrix() {
		p.matrix = newMatrix(scale)
		p.cells = p.matrix.cells()
	}
	for _, s := range p.sections {
		declare, ok := figures[s]
		if _, done := p.figs[s]; !ok || done {
			continue
		}
		f := plannedFigure{declare(scale), len(p.cells)}
		for i, c := range f.cells {
			p.cells = append(p.cells, planCell{c, fmt.Sprintf("%s-%02d-%s-%s", s, i, c.W.Name, c.Cfg.Name)})
		}
		p.figs[s] = f
	}
	return p
}

// needsMatrix reports whether a selected section renders from the matrix.
func (p *plan) needsMatrix() bool {
	for _, s := range p.sections {
		if matrixSections[s] {
			return true
		}
	}
	return false
}

// render writes every section to w in order, each table followed by a
// blank line. m is the matrix (nil when no section needs it); out holds
// the outcomes of p.cells.
func (p *plan) render(w io.Writer, m *Matrix, out []outcome) error {
	for _, s := range p.sections {
		var tabs []*report.Table
		switch s {
		case "tab3":
			tabs = append(tabs, Tab3Params())
		case "area":
			tabs = append(tabs, Tab3Area())
		case "tab4":
			tabs = append(tabs, m.Tab4Workloads())
		case "tab5":
			tabs = append(tabs, m.Tab5MechanismCoverage())
		case "tab6":
			t, err := m.Tab6OffloadCharacteristics()
			if err != nil {
				return err
			}
			tabs = append(tabs, t)
		case "fig7":
			tabs = append(tabs, m.Fig7EnergyEfficiency())
		case "fig8":
			tabs = append(tabs, m.Fig8CacheAccesses())
		case "fig9":
			tabs = append(tabs, m.Fig9AccessDistribution())
		case "fig10":
			tabs = append(tabs, m.Fig10NoCTraffic())
		case "fig11a":
			tabs = append(tabs, m.Fig11aIPC())
		case "fig11b":
			tabs = append(tabs, m.Fig11bSpeedup())
		case "headline":
			tabs = append(tabs, m.Headline(), m.DataMovement())
		default:
			f := p.figs[s]
			res := make([]*sim.Result, len(f.cells))
			for i := range res {
				res[i] = out[f.first+i].res
			}
			tabs = append(tabs, f.render(res))
		}
		for _, t := range tabs {
			if _, err := fmt.Fprintln(w, t.Render()); err != nil {
				return err
			}
		}
	}
	return nil
}

// Summary describes the cells behind one Render.
type Summary struct {
	// Cells is the number of cells planned; 0 means the selection
	// simulated nothing (static tables only).
	Cells int
	// Degraded lists "<cell>: <reason>" for every cell that timed out and
	// rendered n/a, in plan order.
	Degraded []string
}

// Render writes the selected tables and figures to w. It plans the cells
// of every selected section — the matrix's when a matrix-backed section is
// selected, and each simulated figure's — runs them all on one worker pool
// under opts (workers, cache, checkpoint, per-cell timeout, hook,
// observability, progress), then renders in selection order. Both
// distda-repro and the distda-serve job server render through Render; for
// an identical (scale, selection) the bytes written are identical at any
// worker count, which is what makes the server's result cache able to
// stand in for a batch CLI invocation.
//
// Canceling ctx aborts the run with an error wrapping sim.ErrCanceled.
func Render(ctx context.Context, w io.Writer, sel Selection, opts Options) (Summary, error) {
	if err := sel.Validate(); err != nil {
		return Summary{}, err
	}
	p := newPlan(sel, opts.Scale, true)
	out, err := run(ctx, opts, p.cells)
	if err != nil {
		return Summary{}, err
	}
	sum := Summary{Cells: len(p.cells)}
	for i, o := range out {
		if o.degraded != "" {
			sum.Degraded = append(sum.Degraded, p.cells[i].name+": "+o.degraded)
		}
	}
	if p.matrix != nil {
		p.matrix.fill(out)
	}
	return sum, p.render(w, p.matrix, out)
}

// RenderSelection writes the selected tables and figures to w, like
// Render with default Options, except that matrix supplies the matrix:
// it is invoked at most once, and only when the selection needs it. It
// stays for callers that build the matrix themselves and render it
// separately — the benchmark harness times Build and the rendering of a
// built matrix apart. The figure sections' cells still run through the
// cell runner, on GOMAXPROCS workers.
func RenderSelection(w io.Writer, scale workloads.Scale, sel Selection, matrix func() (*Matrix, error)) error {
	if err := sel.Validate(); err != nil {
		return err
	}
	p := newPlan(sel, scale, false)
	out, err := run(context.Background(), Options{Scale: scale}, p.cells)
	if err != nil {
		return err
	}
	var m *Matrix
	if p.needsMatrix() {
		if m, err = matrix(); err != nil {
			return err
		}
		if m == nil {
			return fmt.Errorf("exp: matrix provider returned nil")
		}
	}
	return p.render(w, m, out)
}

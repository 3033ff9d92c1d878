package exp

import (
	"fmt"
	"io"

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
// JSON, so both front ends share RenderSelection and produce byte-identical
// output for the same selection.
type Selection struct {
	// Figs and Tabs render in the given order (see ValidFigs/ValidTabs).
	Figs []string `json:"figs,omitempty"`
	Tabs []string `json:"tabs,omitempty"`
	// Headline renders the abstract's headline geomeans plus the
	// data-movement table.
	Headline bool `json:"headline,omitempty"`
	// Params renders Table III up front (before any -tab selection), the
	// way distda-repro's -params flag does.
	Params bool `json:"params,omitempty"`
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
// headline, sensitivity, area, off-chip and ablation sections (Params stays
// as-is; -all never set it either).
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
	return len(s.Figs) == 0 && len(s.Tabs) == 0 && !s.Headline && !s.Params &&
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

// RenderSelection writes the selected tables and figures to w in
// distda-repro's order: params, tables, figures, headline (+ data
// movement), sensitivity, area, off-chip, pim, ablations — each table followed
// by a blank line. matrix supplies the built experiment matrix and is
// invoked at most once, and only when the selection needs it, so
// selections of scale-only sections never pay for a matrix build.
//
// Both distda-repro and the distda-serve job server render through this
// function; for an identical (scale, selection, matrix) the bytes written
// here are identical, which is what makes the server's result cache able
// to stand in for a batch CLI invocation.
func RenderSelection(w io.Writer, scale workloads.Scale, sel Selection, matrix func() (*Matrix, error)) error {
	if err := sel.Validate(); err != nil {
		return err
	}
	var m *Matrix
	need := func() (*Matrix, error) {
		if m == nil {
			var err error
			m, err = matrix()
			if err != nil {
				return nil, err
			}
			if m == nil {
				return nil, fmt.Errorf("exp: matrix provider returned nil")
			}
		}
		return m, nil
	}
	emit := func(text string, err error) error {
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(w, text)
		return err
	}
	matrixTable := func(f func(*Matrix) interface{ Render() string }) error {
		mm, err := need()
		if err != nil {
			return err
		}
		return emit(f(mm).Render(), nil)
	}
	scaleTable := func(f func(workloads.Scale) (interface{ Render() string }, error)) error {
		t, err := f(scale)
		if err != nil {
			return err
		}
		return emit(t.Render(), nil)
	}

	if sel.Params {
		if err := emit(Tab3Params().Render(), nil); err != nil {
			return err
		}
	}
	for _, tab := range sel.Tabs {
		var err error
		switch tab {
		case "3":
			err = emit(Tab3Params().Render(), nil)
		case "4":
			err = matrixTable(func(m *Matrix) interface{ Render() string } { return m.Tab4Workloads() })
		case "5":
			err = matrixTable(func(m *Matrix) interface{ Render() string } { return m.Tab5MechanismCoverage() })
		case "6":
			mm, merr := need()
			if merr != nil {
				return merr
			}
			t, terr := mm.Tab6OffloadCharacteristics()
			if terr != nil {
				return terr
			}
			err = emit(t.Render(), nil)
		}
		if err != nil {
			return err
		}
	}
	for _, fig := range sel.Figs {
		var err error
		switch fig {
		case "7":
			err = matrixTable(func(m *Matrix) interface{ Render() string } { return m.Fig7EnergyEfficiency() })
		case "8":
			err = matrixTable(func(m *Matrix) interface{ Render() string } { return m.Fig8CacheAccesses() })
		case "9":
			err = matrixTable(func(m *Matrix) interface{ Render() string } { return m.Fig9AccessDistribution() })
		case "10":
			err = matrixTable(func(m *Matrix) interface{ Render() string } { return m.Fig10NoCTraffic() })
		case "11a":
			err = matrixTable(func(m *Matrix) interface{ Render() string } { return m.Fig11aIPC() })
		case "11b":
			err = matrixTable(func(m *Matrix) interface{ Render() string } { return m.Fig11bSpeedup() })
		case "12a":
			err = scaleTable(func(s workloads.Scale) (interface{ Render() string }, error) { return Fig12aCaseStudies(s) })
		case "12b":
			err = scaleTable(func(s workloads.Scale) (interface{ Render() string }, error) { return Fig12bMultithread(s) })
		case "13":
			err = scaleTable(func(s workloads.Scale) (interface{ Render() string }, error) { return Fig13Clocking(s) })
		case "14":
			err = scaleTable(func(s workloads.Scale) (interface{ Render() string }, error) { return Fig14SoftwareOpt(s) })
		}
		if err != nil {
			return err
		}
	}
	if sel.Headline {
		if err := matrixTable(func(m *Matrix) interface{ Render() string } { return m.Headline() }); err != nil {
			return err
		}
		if err := matrixTable(func(m *Matrix) interface{ Render() string } { return m.DataMovement() }); err != nil {
			return err
		}
	}
	if sel.Sens {
		if err := scaleTable(func(s workloads.Scale) (interface{ Render() string }, error) { return SensWorkingSet(s) }); err != nil {
			return err
		}
	}
	if sel.Area {
		if err := emit(Tab3Area().Render(), nil); err != nil {
			return err
		}
	}
	if sel.OffChip {
		if err := scaleTable(func(s workloads.Scale) (interface{ Render() string }, error) { return OffChipExtension(s) }); err != nil {
			return err
		}
	}
	if sel.PIM {
		if err := scaleTable(func(s workloads.Scale) (interface{ Render() string }, error) { return PIMExtension(s) }); err != nil {
			return err
		}
	}
	if sel.Ablations {
		if err := scaleTable(func(s workloads.Scale) (interface{ Render() string }, error) { return Ablations(s) }); err != nil {
			return err
		}
	}
	return nil
}

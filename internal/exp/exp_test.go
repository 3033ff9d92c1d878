package exp

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"

	"distda/internal/report"
	"distda/internal/sim"
	"distda/internal/workloads"
)

var (
	mOnce sync.Once
	mVal  *Matrix
	mErr  error
)

func testMatrix(t *testing.T) *Matrix {
	t.Helper()
	mOnce.Do(func() { mVal, mErr = Build(context.Background(), Options{Scale: workloads.ScaleTest}) })
	if mErr != nil {
		t.Fatal(mErr)
	}
	return mVal
}

// figureTable runs one simulated section's cells through the worker pool
// at test scale and renders its table.
func figureTable(t *testing.T, section string) *report.Table {
	t.Helper()
	f := figures[section](workloads.ScaleTest)
	cells := make([]planCell, len(f.cells))
	for i, c := range f.cells {
		cells[i] = planCell{c, strconv.Itoa(i)}
	}
	out, err := run(context.Background(), Options{Scale: workloads.ScaleTest}, cells)
	if err != nil {
		t.Fatal(err)
	}
	res := make([]*sim.Result, len(out))
	for i, o := range out {
		res[i] = o.res
	}
	return f.render(res)
}

func TestMatrixComplete(t *testing.T) {
	m := testMatrix(t)
	if len(m.Workloads) != 12 {
		t.Fatalf("workloads = %d, want 12", len(m.Workloads))
	}
	if len(m.Configs) != 6 {
		t.Fatalf("configs = %d, want 6", len(m.Configs))
	}
	for _, w := range m.Workloads {
		for _, cfg := range m.Configs {
			r := m.Res[w.Name][cfg.Name]
			if r == nil {
				t.Fatalf("missing result %s/%s", w.Name, cfg.Name)
			}
			if !r.Validated {
				t.Fatalf("%s on %s not validated", w.Name, cfg.Name)
			}
		}
	}
}

func TestFigureTablesRender(t *testing.T) {
	m := testMatrix(t)
	tables := map[string]interface{ Render() string }{
		"fig7":     m.Fig7EnergyEfficiency(),
		"fig8":     m.Fig8CacheAccesses(),
		"fig9":     m.Fig9AccessDistribution(),
		"fig10":    m.Fig10NoCTraffic(),
		"fig11a":   m.Fig11aIPC(),
		"fig11b":   m.Fig11bSpeedup(),
		"headline": m.Headline(),
		"movement": m.DataMovement(),
		"tab4":     m.Tab4Workloads(),
		"tab5":     m.Tab5MechanismCoverage(),
		"area":     Tab3Area(),
		"params":   Tab3Params(),
	}
	for name, tab := range tables {
		text := tab.Render()
		if len(text) < 50 {
			t.Errorf("%s: suspiciously short render:\n%s", name, text)
		}
		if name[:3] == "fig" && !strings.Contains(text, "seidel-2d") && name != "fig10" {
			// every per-benchmark figure lists all workloads
			if !strings.Contains(text, "seidel") {
				t.Errorf("%s: missing benchmark rows:\n%s", name, text)
			}
		}
	}
}

func TestTab6Sane(t *testing.T) {
	m := testMatrix(t)
	tab, err := m.Tab6OffloadCharacteristics()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		cc, err := strconv.ParseFloat(row[1], 64)
		if err != nil || cc <= 0 || cc > 100 {
			t.Errorf("%s: %%cc = %q", row[0], row[1])
		}
		dc, err := strconv.ParseFloat(row[2], 64)
		if err != nil || dc <= 0 || dc > 100 {
			t.Errorf("%s: %%dc = %q", row[0], row[2])
		}
		insts, err := strconv.Atoi(row[5])
		if err != nil || insts <= 0 {
			t.Errorf("%s: #insts = %q", row[0], row[5])
		}
		bytes, err := strconv.Atoi(row[7])
		if err != nil || bytes != insts*8 {
			t.Errorf("%s: insts(B) = %q, want %d", row[0], row[7], insts*8)
		}
	}
}

func TestTab5CoversCoreMechanisms(t *testing.T) {
	m := testMatrix(t)
	tab := m.Tab5MechanismCoverage()
	// Every workload uses produce/consume/config/run (paper Table V).
	colIdx := map[string]int{}
	for i, c := range tab.Columns {
		colIdx[c] = i
	}
	for _, row := range tab.Rows {
		// Every offloaded benchmark consumes operands and is configured/run;
		// produce appears wherever a stream-out or channel exists (pure
		// reductions write back via cp_write instead).
		for _, mech := range []string{"cp_consume", "cp_config", "cp_run"} {
			if row[colIdx[mech]] != "C" {
				t.Errorf("%s: %s not marked C", row[0], mech)
			}
		}
	}
	// Irregular workloads use cp_read (paper Table V's bfs/pr rows).
	for _, row := range tab.Rows {
		if row[0] == "bfs" && row[colIdx["cp_read"]] != "C" {
			t.Errorf("bfs: cp_read not used")
		}
	}
}

func TestFig12aOrdering(t *testing.T) {
	tab := figureTable(t, "fig12a")
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		b, _ := strconv.ParseFloat(row[1], 64)
		bns, _ := strconv.ParseFloat(row[3], 64)
		if bns < b {
			t.Errorf("%s: BNS (%g) not better than B (%g)", row[0], bns, b)
		}
	}
}

func TestFig13MonotoneSpeedup(t *testing.T) {
	tab := figureTable(t, "fig13")
	for _, row := range tab.Rows {
		s3 := strings.Split(row[3], "|")[0]
		v, err := strconv.ParseFloat(s3, 64)
		if err != nil {
			t.Fatalf("%s: bad cell %q", row[0], row[3])
		}
		if v < 0.95 {
			t.Errorf("%s: 3 GHz slower than 1 GHz (%g)", row[0], v)
		}
	}
}

func TestFig14Renders(t *testing.T) {
	tab := figureTable(t, "fig14")
	if len(tab.Rows) != 12 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestFig12bThreadScaling(t *testing.T) {
	tab := figureTable(t, "fig12b")
	for _, row := range tab.Rows {
		one, _ := strconv.ParseFloat(row[2], 64)
		eight, _ := strconv.ParseFloat(row[5], 64)
		if eight < one {
			t.Errorf("%s/%s: 8 threads (%g) slower than 1 (%g)", row[0], row[1], eight, one)
		}
	}
}

func TestSensAndAblations(t *testing.T) {
	if tab := figureTable(t, "sens"); len(tab.Rows) != 2 {
		t.Fatalf("sensitivity rows = %d", len(tab.Rows))
	}
	tab := figureTable(t, "ablations")
	if len(tab.Rows) != 6 {
		t.Fatalf("ablation rows = %d", len(tab.Rows))
	}
}

func TestHeadlineDirections(t *testing.T) {
	m := testMatrix(t)
	// Dist-DA-F must beat the OoO baseline on energy at any scale.
	tab := m.Headline()
	if len(tab.Rows) != 4 {
		t.Fatalf("headline rows = %d", len(tab.Rows))
	}
	eff, err := strconv.ParseFloat(tab.Rows[0][1], 64)
	if err != nil || eff <= 1 {
		t.Errorf("energy efficiency vs OoO = %q, want > 1", tab.Rows[0][1])
	}
}

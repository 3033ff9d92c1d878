package sim

import (
	"bytes"
	"math"
	"os"
	"path"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"distda/internal/noc"
	"distda/internal/profile"
	"distda/internal/workloads"
)

// metricsRow matches one row of the "Former -metrics rows" table in
// docs/OBSERVABILITY.md: | `old/name` | [Σ] `dump.pattern` [/ 3] |.
var metricsRow = regexp.MustCompile("^\\| `([a-z0-9_]+/[a-z0-9_]+)` \\| (Σ )?`([^`]+)`( / 3)? \\|$")

// TestStatsDumpCoversMetrics runs pathfinder on Dist-DA-IO with a profiler
// and evaluates every row of the OBSERVABILITY.md mapping table against the
// stats dump: each named line exists (or is a Σ / omitted-when-zero line),
// and where the run's Result carries the old figure, the formula
// reproduces it.
func TestStatsDumpCoversMetrics(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.ByName("pathfinder", workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DistDAIO()
	cfg.Profile = profile.New()
	res, err := Run(w.Kernel, w.Params, w.NewData(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	if err := cfg.Profile.WriteStats(&dump); err != nil {
		t.Fatal(err)
	}
	stats := map[string]float64{}
	for _, line := range strings.Split(dump.String(), "\n") {
		if f := strings.Fields(line); len(f) >= 2 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				stats[f[0]] = v
			}
		}
	}

	// The old figures the Result still carries.
	want := map[string]float64{
		"sim/cycles":       float64(res.Cycles),
		"sim/launches":     float64(res.Launches),
		"host/instr":       float64(res.HostInstr),
		"host/mmio":        float64(res.MMIOHost),
		"accel/ops":        float64(res.AccelOps),
		"dram/accesses":    float64(res.DRAM),
		"au/da_bytes":      float64(res.DABytes),
		"au/aa_bytes":      float64(res.AABytes),
		"au/intra_bytes":   float64(res.IntraBytes),
		"energy/total_pj":  res.EnergyPJ,
		"energy/host_pj":   res.EnergyByCat["host"],
		"energy/l1_pj":     res.EnergyByCat["l1"],
		"energy/l2_pj":     res.EnergyByCat["l2"],
		"energy/l3_pj":     res.EnergyByCat["l3"],
		"energy/dram_pj":   res.EnergyByCat["dram"],
		"energy/noc_pj":    res.EnergyByCat["noc"],
		"energy/buffer_pj": res.EnergyByCat["buffer"],
		"energy/accel_pj":  res.EnergyByCat["accel"],
		"energy/mmio_pj":   res.EnergyByCat["mmio"],
	}
	for _, c := range noc.Classes() {
		want["noc/"+c.String()+"_bytes"] = float64(res.NoCBytes[c.String()])
	}

	rows := 0
	for _, line := range strings.Split(string(doc), "\n") {
		m := metricsRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		rows++
		old, sum, pattern, perHost := m[1], m[2] != "", m[3], m[4] != ""
		if prefix, ok := strings.CutSuffix(pattern, "::*"); ok {
			if _, ok := stats[prefix+"::samples"]; !ok {
				t.Errorf("%s: dump has no %s histogram", old, prefix)
			}
			continue
		}
		var got float64
		matched := 0
		for name, v := range stats {
			if ok, _ := path.Match(pattern, name); ok {
				got += v
				matched++
			}
		}
		omittedWhenZero := strings.HasSuffix(pattern, ".events") ||
			strings.HasSuffix(pattern, ".stall_cycles") || strings.HasSuffix(pattern, ".energy_pj")
		if matched == 0 && !sum && !omittedWhenZero {
			t.Errorf("%s: dump has no %s line", old, pattern)
		}
		if perHost {
			got = math.Floor(got / float64(hostDiv))
		}
		if exp, ok := want[old]; ok && math.Abs(got-exp) > 1e-6*math.Max(1, math.Abs(exp)) {
			t.Errorf("%s: %s evaluates to %v, Result says %v", old, pattern, got, exp)
		}
	}
	if rows < 50 {
		t.Fatalf("parsed %d mapping rows from docs/OBSERVABILITY.md, want the full table", rows)
	}
}

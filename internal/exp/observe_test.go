package exp

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"distda/internal/profile"
	"distda/internal/trace"
	"distda/internal/workloads"
)

// TestObservedMatrixIdentical proves observability is purely observational:
// a matrix built with a per-cell tracer and a profiler attached, at
// a parallel worker count, is field-for-field identical to a plain serial
// build. This is the repro-level trace-on/off differential — every figure
// and table renders from Res, so equal Res means byte-identical output.
func TestObservedMatrixIdentical(t *testing.T) {
	plain, err := Build(context.Background(), Options{Scale: workloads.ScaleTest, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	prof := profile.New()
	var tracers []*trace.Tracer
	obs := Observe{
		Tracer: func(string) *trace.Tracer {
			tr := trace.New()
			tracers = append(tracers, tr)
			return tr
		},
		Profile: prof,
	}
	observed, err := Build(context.Background(), Options{Scale: workloads.ScaleTest, Workers: 8, Observe: obs})
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain.Res, observed.Res) {
		for w, byCfg := range plain.Res {
			for cfg, r := range byCfg {
				if !reflect.DeepEqual(r, observed.Res[w][cfg]) {
					t.Errorf("%s on %s: observed build diverges:\nplain:    %+v\nobserved: %+v",
						w, cfg, r, observed.Res[w][cfg])
				}
			}
		}
		t.Fatal("observed matrix diverges from plain serial build")
	}

	if want := len(plain.Workloads) * len(plain.Configs); len(tracers) != want {
		t.Errorf("tracer provider called %d times, want %d", len(tracers), want)
	}
	var events int64
	for _, tr := range tracers {
		events += tr.Events()
	}
	if events == 0 {
		t.Error("per-cell tracers recorded no events")
	}
	if len(prof.Components()) == 0 || len(prof.Hists()) == 0 || len(prof.Counters()) == 0 {
		t.Error("merged profiler is empty")
	}
}

// TestObservedMetricsDeterministic folds per-cell profilers from two
// builds at different worker counts and requires byte-identical stats
// dumps, artifact cache counters included: the serial-order merge must hide
// scheduling.
func TestObservedMetricsDeterministic(t *testing.T) {
	build := func(workers int) string {
		prof := profile.New()
		if _, err := Build(context.Background(), Options{Scale: workloads.ScaleTest, Workers: workers, Observe: Observe{Profile: prof}}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := prof.WriteStats(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := build(1), build(8)
	if a != b {
		t.Errorf("merged stats dumps differ between worker counts:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
	if n := strings.Count(a, "\nartifact."); n != 14 {
		t.Errorf("stats dump carries %d artifact.* lines, want 14:\n%s", n, a)
	}
	for _, want := range []string{"\nartifact.compiles ", "\nlatency.au.fill_lat::samples ", "\nhost.loads "} {
		if !strings.Contains(a, want) {
			t.Errorf("stats dump lacks %q", strings.TrimSpace(want))
		}
	}
}

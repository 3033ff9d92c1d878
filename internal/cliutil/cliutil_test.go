package cliutil

import (
	"flag"
	"strings"
	"testing"

	"distda/internal/workloads"
)

func TestParseScale(t *testing.T) {
	for name, want := range map[string]workloads.Scale{
		"test":  workloads.ScaleTest,
		"bench": workloads.ScaleBench,
		"paper": workloads.ScalePaper,
	} {
		got, err := ParseScale(name)
		if err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("ParseScale accepted an unknown scale")
	}
}

func TestLookupWorkload(t *testing.T) {
	for _, name := range []string{"fdtd-2d", "bfs", "spmv", "bfs-mt", "pathfinder-mt"} {
		w, err := LookupWorkload(name, workloads.ScaleTest)
		if err != nil || w == nil {
			t.Errorf("LookupWorkload(%q) failed: %v", name, err)
		}
	}
	if _, err := LookupWorkload("nope", workloads.ScaleTest); err == nil {
		t.Error("LookupWorkload accepted an unknown name")
	}
}

func TestLookupConfigCaseInsensitive(t *testing.T) {
	for in, want := range map[string]string{
		"ooo":             "OoO",
		"dist-da-io":      "Dist-DA-IO",
		"DIST-DA-F":       "Dist-DA-F",
		"mono-ca":         "Mono-CA",
		"dist-da-io+sw":   "Dist-DA-IO+SW",
		"dist-da-offchip": "Dist-DA-OffChip",
		"dist-da-pim":     "Dist-DA-PIM",
	} {
		c, err := LookupConfig(in)
		if err != nil {
			t.Errorf("LookupConfig(%q): %v", in, err)
			continue
		}
		if c.Name != want {
			t.Errorf("LookupConfig(%q) = %q, want %q", in, c.Name, want)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("LookupConfig(%q) returned an invalid config: %v", in, err)
		}
	}
	_, err := LookupConfig("warp-drive")
	if err == nil {
		t.Fatal("LookupConfig accepted an unknown name")
	}
	// The name table, the constructors and the error's list agree.
	for _, c := range configs {
		if got := c.new().Name; got != c.name {
			t.Errorf("configs entry %q builds %q", c.name, got)
		}
		if !strings.Contains(err.Error(), c.name) {
			t.Errorf("unknown-config error %q does not list %q", err, c.name)
		}
	}
}

func TestStringListFlag(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var figs StringList
	fs.Var(&figs, "fig", "")
	if err := fs.Parse([]string{"-fig", "7", "-fig", "11b"}); err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 || figs[0] != "7" || figs[1] != "11b" {
		t.Errorf("figs = %v", figs)
	}
	if s := figs.String(); !strings.Contains(s, "11b") {
		t.Errorf("String() = %q", s)
	}
}

func TestOpenCache(t *testing.T) {
	if OpenCache("") == nil || OpenCache(t.TempDir()) == nil {
		t.Fatal("OpenCache returned nil")
	}
}

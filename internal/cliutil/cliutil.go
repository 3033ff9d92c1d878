// Package cliutil holds the flag handling, name resolution and exit-code
// conventions shared by the distda command-line tools, so the three cmds
// parse scales, workloads, configurations and observability flags
// identically.
package cliutil

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"distda/internal/artifact"
	"distda/internal/sim"
	"distda/internal/trace"
	"distda/internal/workloads"
)

// Process exit codes shared by the distda tools.
const (
	// ExitOK: success.
	ExitOK = 0
	// ExitError: a simulation, compilation or I/O error.
	ExitError = 1
	// ExitUsage: bad flags or arguments.
	ExitUsage = 2
	// ExitDegraded: the run completed but one or more matrix cells timed
	// out and rendered as n/a (see exp.Options.CellTimeout). Distinct from
	// ExitError so harnesses can accept partial tables deliberately.
	ExitDegraded = 3
)

// ParseScale resolves a -scale flag value.
func ParseScale(name string) (workloads.Scale, error) {
	switch name {
	case "test":
		return workloads.ScaleTest, nil
	case "bench":
		return workloads.ScaleBench, nil
	case "paper":
		return workloads.ScalePaper, nil
	default:
		return 0, fmt.Errorf("unknown scale %q (want test, bench or paper)", name)
	}
}

// LookupWorkload builds a built-in workload by name: a paper benchmark,
// the spmv case study or a multithreaded variant (workloads.ByName).
func LookupWorkload(name string, scale workloads.Scale) (*workloads.Workload, error) {
	return workloads.ByName(name, scale)
}

// configs names every configuration the tools accept, each with its sim
// constructor — the only source of configurations here; no Config is
// assembled by hand.
var configs = [...]struct {
	name string
	new  func() sim.Config
}{
	{"OoO", sim.OoO},
	{"Mono-CA", sim.MonoCA},
	{"Mono-DA-IO", sim.MonoDAIO},
	{"Mono-DA-F", sim.MonoDAF},
	{"Dist-DA-IO", sim.DistDAIO},
	{"Dist-DA-F", sim.DistDAF},
	{"Dist-DA-IO+SW", sim.DistDAIOSW},
	{"Dist-DA-F+A", sim.DistDAFA},
	{"Dist-DA-OffChip", sim.DistDAOffChip},
	{"Dist-DA-PIM", sim.DistDAPIM},
}

// LookupConfig builds a configuration by name, case-insensitively
// ("dist-da-io" selects Dist-DA-IO).
func LookupConfig(name string) (sim.Config, error) {
	for _, c := range configs {
		if strings.EqualFold(c.name, name) {
			return c.new(), nil
		}
	}
	var zero sim.Config
	return zero, fmt.Errorf("unknown configuration %q (want OoO, Mono-CA, Mono-DA-IO, Mono-DA-F, Dist-DA-IO, Dist-DA-F, Dist-DA-IO+SW, Dist-DA-F+A, Dist-DA-OffChip or Dist-DA-PIM)", name)
}

// StringList is a repeatable string flag (flag.Value).
type StringList []string

// String implements flag.Value.
func (l *StringList) String() string { return fmt.Sprint(*l) }

// Set implements flag.Value by appending.
func (l *StringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

// CheckPathFlags rejects a path-valued flag whose value starts with "-".
// The flag package hands such a flag the next argument as its value, so
// "-stats -breakdown" would write a file named -breakdown and silently drop
// -breakdown; a flag-like value is almost always that mistake. The error
// names the flag. Names must be registered on fs.
func CheckPathFlags(fs *flag.FlagSet, names ...string) error {
	for _, name := range names {
		if v := fs.Lookup(name).Value.String(); strings.HasPrefix(v, "-") {
			return fmt.Errorf("-%s takes a path, got %q (a flag?); write ./%s for a file of that name", name, v, v)
		}
	}
	return nil
}

// OpenCache returns the artifact cache for a -cache-dir flag value: a
// disk-backed cache under dir, or a process-private in-memory cache when
// dir is empty.
func OpenCache(dir string) *artifact.Cache {
	return artifact.New(artifact.Config{Dir: dir})
}

// WriteTrace exports the tracer to path as Chrome trace_event JSON.
func WriteTrace(tr *trace.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

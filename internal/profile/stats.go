package profile

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// WriteStats writes the profile as a gem5-style stats dump: one
// `name  value  # description` line per statistic, grouped by section and
// sorted within each group, bracketed by the gem5 begin/end markers. The
// output is deterministic for a deterministic run (and for any merge order
// of parallel cells).
//
// Schema (documented in docs/OBSERVABILITY.md):
//
//	sim.total_base_cycles / sim.runs
//	<kind>.<name>.busy_cycles / .stall_cycles / .events / .energy_pj
//	<kind>.<name>.utilization         (busy / total base cycles)
//	region.<kernel>:<region>.launches / .dispatch_cycles / .queue_cycles /
//	    .execute_cycles / .writeback_cycles / .total_cycles
//	latency.<component>.<name>::samples/::mean/::min/::max/::p50/::p95/::p99
//	queue.<kind>.<name>.occ::samples/::mean/::min/::max/::p50/::p95/::p99
//	span.<track>.<name>.count / .cycles / .instants
//	<counter name>                    (additive counters, sorted by name)
func (p *Profiler) WriteStats(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "---------- Begin Simulation Statistics ----------"); err != nil {
		return err
	}
	line := func(name string, value string, desc string) {
		fmt.Fprintf(bw, "%-58s %20s  # %s\n", name, value, desc)
	}
	iv := func(name string, v int64, desc string) { line(name, fmt.Sprintf("%d", v), desc) }
	fv := func(name string, v float64, desc string) { line(name, fmt.Sprintf("%.6f", v), desc) }

	if p == nil {
		iv("sim.total_base_cycles", 0, "profiling disabled")
		fmt.Fprintln(bw, "---------- End Simulation Statistics   ----------")
		return bw.Flush()
	}

	p.mu.Lock()
	total := p.totalBase
	runs := p.runs
	p.mu.Unlock()

	iv("sim.total_base_cycles", total, "simulated base cycles across absorbed runs (6 GHz base clock)")
	iv("sim.runs", runs, "simulation runs absorbed into this profile")

	for _, c := range p.Components() {
		prefix := c.Kind + "." + c.Name
		iv(prefix+".busy_cycles", c.Busy, "base cycles doing useful work")
		if c.Stall != 0 {
			iv(prefix+".stall_cycles", c.Stall, "base cycles stalled")
		}
		if c.Events != 0 {
			iv(prefix+".events", c.Events, "component events (ops/accesses/flit-hops)")
		}
		if c.EnergyPJ != 0 {
			fv(prefix+".energy_pj", c.EnergyPJ, "dynamic energy attributed (pJ)")
		}
		if total > 0 {
			fv(prefix+".utilization", float64(c.Busy)/float64(total), "busy cycles / total base cycles")
		}
	}

	for _, r := range p.Regions() {
		prefix := "region." + r.Kernel + ":" + r.Name
		iv(prefix+".launches", r.Launches, "offload launches of this region")
		iv(prefix+".dispatch_cycles", r.Dispatch, "host-side flush + configuration (base cycles)")
		iv(prefix+".queue_cycles", r.Queue, "waiting behind prior launches (base cycles)")
		iv(prefix+".execute_cycles", r.Execute, "accelerator execution (base cycles)")
		iv(prefix+".writeback_cycles", r.Writeback, "sync wait + scalar read-back (base cycles)")
		iv(prefix+".total_cycles", r.Total(), "end-to-end offload latency (base cycles)")
	}

	for _, hh := range p.Hists() {
		h, prefix, d := hh.Snapshot(), hh.Prefix, hh.Desc
		iv(prefix+"::samples", h.N, d+" samples")
		fv(prefix+"::mean", h.Mean(), "mean "+d)
		fv(prefix+"::min", h.Min, "min observed "+d)
		fv(prefix+"::max", h.Max, "max observed "+d)
		fv(prefix+"::p50", h.Percentile(50), "p50 "+d+" (bucket upper bound)")
		fv(prefix+"::p95", h.Percentile(95), "p95 "+d+" (bucket upper bound)")
		fv(prefix+"::p99", h.Percentile(99), "p99 "+d+" (bucket upper bound)")
	}

	for _, a := range p.Spans() {
		prefix := "span." + a.Track + "." + a.Name
		if a.Count > 0 {
			iv(prefix+".count", a.Count, "trace spans aggregated")
			iv(prefix+".cycles", a.Cycles, "summed span duration (base cycles)")
		}
		if a.Instants > 0 {
			iv(prefix+".instants", a.Instants, "instant events")
		}
	}

	counters := p.Counters()
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		iv(name, counters[name], "counter (summed across absorbed runs)")
	}

	if _, err := fmt.Fprintln(bw, "---------- End Simulation Statistics   ----------"); err != nil {
		return err
	}
	return bw.Flush()
}

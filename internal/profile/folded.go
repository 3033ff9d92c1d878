package profile

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// WriteFolded writes the profile of simulated time as folded stacks —
// the `frame;frame;frame count` format FlameGraph's flamegraph.pl and
// speedscope both ingest directly. Stacks are keyed
// kernel;region;component, with the offload phases that are not spent on a
// hardware component (dispatch, queue wait, writeback) emitted as pseudo
// component frames so every attributed cycle appears exactly once. Counts
// are base cycles. Lines are sorted; zero-count stacks are skipped. The
// output is deterministic for any merge order.
func (p *Profiler) WriteFolded(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if p == nil {
		return bw.Flush()
	}
	var lines []string
	for _, r := range p.Regions() {
		stack := func(comp string, n int64) {
			if n > 0 {
				lines = append(lines, fmt.Sprintf("%s;%s;%s %d", r.Kernel, r.Name, comp, n))
			}
		}
		stack("[dispatch]", r.Dispatch)
		stack("[queue]", r.Queue)
		stack("[writeback]", r.Writeback)
		// Execute cycles split across the components that ran the region when
		// the per-launch fold recorded them; any remainder (e.g. engine
		// scheduling slack not attributed to a specific unit) folds into a
		// catch-all frame so the region's stack total still sums to Total().
		var attributed int64
		for label, n := range r.comps {
			stack(label, n)
			attributed += n
		}
		if rest := r.Execute - attributed; rest > 0 {
			stack("[execute-other]", rest)
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(bw, l); err != nil {
			return err
		}
	}
	return bw.Flush()
}

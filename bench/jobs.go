package main

import (
	"fmt"
	"math/rand"

	"distda/internal/serve"
	"distda/internal/sim"
	"distda/internal/workloads"
)

// repeatFrac is the share of serve-mixed jobs that resubmit an earlier
// spec. The serve-mixed traffic is synthetic: no request log of
// distda-serve exists to derive it from, so this value was chosen, not
// measured, to make both the hit path and the simulate path carry load.
// With chance collisions in the 1,080-spec space, about 43% of a 1,000-job
// round repeat an earlier spec; the server's 256-entry result cache evicts
// some of those, which leaves about 30% hits.
const repeatFrac = 0.2

// jobSequence draws n test-scale run jobs for seed. Each job repeats an
// earlier one with probability repeatFrac; otherwise it is a uniform draw
// from the twelve workloads × ten named configurations × clock override
// {none, 1, 3 GHz} × threads {1, 2, 4}. It sends no matrix jobs.
func jobSequence(seed int64, n int) []serve.JobSpec {
	var names []string
	for _, w := range workloads.All(workloads.ScaleTest) {
		names = append(names, w.Name)
	}
	var configs []string
	for _, c := range append(sim.AllPaperConfigs(), sim.DistDAIOSW(), sim.DistDAFA(), sim.DistDAOffChip(), sim.DistDAPIM()) {
		configs = append(configs, c.Name)
	}
	ghz := []int{0, 1, 3}
	threads := []int{1, 2, 4}

	rng := rand.New(rand.NewSource(seed))
	seq := make([]serve.JobSpec, n)
	for i := range seq {
		if i > 0 && rng.Float64() < repeatFrac {
			seq[i] = seq[rng.Intn(i)]
			continue
		}
		seq[i] = serve.JobSpec{
			Kind:     serve.KindRun,
			Scale:    "test",
			Workload: names[rng.Intn(len(names))],
			Config:   configs[rng.Intn(len(configs))],
			GHz:      ghz[rng.Intn(len(ghz))],
			Threads:  threads[rng.Intn(len(threads))],
		}
	}
	return seq
}

// specKey identifies a run job's result: equal keys must get equal bytes.
func specKey(s serve.JobSpec) string {
	return fmt.Sprintf("%s/%s/%dGHz/%dt", s.Workload, s.Config, s.GHz, s.Threads)
}

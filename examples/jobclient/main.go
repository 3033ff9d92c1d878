// Jobclient: submit an experiment to a running distda-serve instance
// through the internal/serveclient Go client, stream its progress over
// server-sent events, and print the rendered result — the same bytes the
// equivalent distda-run invocation produces.
//
// Start a server first (in-memory caches are fine for a demo):
//
//	go run ./cmd/distda-serve -addr localhost:8080
//
// then:
//
//	go run ./examples/jobclient [-base http://localhost:8080]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"distda/internal/obs"
	"distda/internal/serve"
	"distda/internal/serveclient"
)

func main() {
	base := flag.String("base", "http://localhost:8080", "distda-serve base URL")
	flag.Parse()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	c := serveclient.New(*base)
	if err := c.Health(ctx); err != nil {
		log.Fatalf("no distda-serve at %s (start one with: go run ./cmd/distda-serve): %v", *base, err)
	}

	// One workload × configuration run; the job JSON mirrors distda-run's
	// flags, and the status reports the CLI equivalent plus the resolved
	// accelerator backend the configuration launches on.
	st, err := c.Submit(ctx, serve.JobSpec{
		Workload: "fdtd-2d",
		Config:   "Dist-DA-F",
		Scale:    "test",
	})
	if err != nil {
		var ae *serveclient.APIError
		if errors.As(err, &ae) {
			log.Fatalf("server rejected the job (HTTP %d): %s", ae.StatusCode, ae.Message)
		}
		log.Fatal(err)
	}
	fmt.Printf("job %s: %s (backend %s, equivalent: %s)\n", st.ID, st.State, st.Backend, st.Equivalent)

	// Follow the SSE progress stream to the terminal state.
	fin, err := c.Wait(ctx, st.ID, func(p obs.Snapshot) {
		fmt.Printf("  progress: %d/%d cells\n", p.Done, p.Total)
	})
	if err != nil {
		log.Fatal(err)
	}
	if fin.State != serve.StateDone {
		log.Fatalf("job ended %s: %s", fin.State, fin.Error)
	}

	out, err := c.Result(ctx, st.ID)
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(out)
}

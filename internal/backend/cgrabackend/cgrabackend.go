// Package cgrabackend registers the statically mapped CGRA fabric
// (internal/cgra) as the "cgra" accelerator backend. The grid shape —
// formerly a top-level sim.Config field — is backend-scoped configuration:
// backend.Opt("grid", "5x5") or "8x8". The fabric itself is the
// backend.Engine: the simulator registers *cgra.Fabric with the scheduler
// directly and re-arms it through its Reset.
package cgrabackend

import (
	"fmt"

	"distda/internal/backend"
	"distda/internal/cgra"
)

func init() { backend.Register(cgraBackend{}) }

type cgraBackend struct{}

func (cgraBackend) Name() string { return "cgra" }

func (cgraBackend) Caps() backend.Caps {
	// The fabric's request port is its memory-port provisioning, not an
	// issue width; Width beyond 1 has no meaning here.
	return backend.Caps{MaxPortWidth: 1, NearData: true, RandomAccess: true}
}

func (cgraBackend) ValidateOptions(opts backend.Options) error {
	for _, kv := range opts {
		if kv.Key != "grid" {
			return fmt.Errorf("cgra backend: unknown option %q", kv.Key)
		}
	}
	_, err := cgra.GridFor(opts)
	return err
}

func (cgraBackend) NewEngine(spec backend.LaunchSpec) (backend.Engine, error) {
	f := new(cgra.Fabric)
	if err := f.Reset(spec); err != nil {
		return nil, err
	}
	return f, nil
}

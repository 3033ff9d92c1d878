// Package iocorebackend registers the lightweight single-issue in-order
// core (internal/iocore) as the "iocore" accelerator backend. The core
// itself is the backend.Engine: the simulator registers *iocore.Core with
// the scheduler directly and re-arms it through its Reset.
package iocorebackend

import (
	"fmt"

	"distda/internal/backend"
	"distda/internal/iocore"
)

func init() { backend.Register(ioBackend{}) }

type ioBackend struct{}

func (ioBackend) Name() string { return "iocore" }

func (ioBackend) Caps() backend.Caps {
	return backend.Caps{MaxPortWidth: iocore.MaxWidth, NearData: true, RandomAccess: true}
}

func (ioBackend) ValidateOptions(opts backend.Options) error {
	for _, kv := range opts {
		return fmt.Errorf("iocore backend: unknown option %q", kv.Key)
	}
	return nil
}

func (ioBackend) NewEngine(spec backend.LaunchSpec) (backend.Engine, error) {
	c := new(iocore.Core)
	if err := c.Reset(spec); err != nil {
		return nil, err
	}
	return c, nil
}

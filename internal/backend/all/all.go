// Package all is the table of every in-tree accelerator backend, by the
// name a simulator configuration selects it with (sim.Config.Backend). It
// is the one package outside the accelerators themselves that names them.
package all

import (
	"sort"

	"distda/internal/backend"
	"distda/internal/cgra"
	"distda/internal/iocore"
	"distda/internal/pimdram"
)

var backends = map[string]backend.Backend{
	"iocore":  iocore.Backend,
	"cgra":    cgra.Backend,
	"pimdram": pimdram.Backend,
}

// Lookup returns the backend named name.
func Lookup(name string) (backend.Backend, bool) {
	b, ok := backends[name]
	return b, ok
}

// Names returns the backend names, sorted.
func Names() []string {
	out := make([]string, 0, len(backends))
	for n := range backends {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

package artifact

// Compiled kernel programs (the flat bytecode the ir VM executes) ride the
// same content-addressed store as offload artifacts: deterministic key,
// in-memory LRU → on-disk gob → compile, single-flight on misses. A
// program is fully determined by the kernel text, so the experiment
// matrix compiles each workload's bytecode once and shares it across
// cells, workers, runs, and processes.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"distda/internal/ir"
)

// ProgramFormatVersion is bumped whenever the program key derivation, the
// bytecode encoding (ir.Op / opcode numbering), or the on-disk envelope
// changes; old entries then simply miss.
const ProgramFormatVersion = 4

// ProgramKey returns the content address of the bytecode program compiled
// from kernel k (from the named workload at the named scale). The hash
// covers the formatted kernel text; equal keys imply byte-equivalent
// programs.
func ProgramKey(workload, scale string, k *ir.Kernel) string {
	return ProgramKeyText(workload, scale, ir.Format(k))
}

// ProgramKeyText is ProgramKey for a kernel whose ir.Format text is
// already at hand.
func ProgramKeyText(workload, scale, text string) string {
	h := sha256.New()
	fmt.Fprintf(h, "distda-program-v%d\nworkload=%s\nscale=%s\n", ProgramFormatVersion, workload, scale)
	fmt.Fprintf(h, "kernel:\n%s", text)
	return hex.EncodeToString(h.Sum(nil))
}

// ProgramStats returns a snapshot of the program-cache counters.
func (c *Cache) ProgramStats() Stats { return c.programs.snapshot() }

// GetOrProgram returns the bytecode program stored under key, bound to
// kernel k. Misses consult the on-disk store (when configured) and
// otherwise compile; concurrent callers with the same key wait for one
// resolution. The returned program is shared, immutable, and safe for
// concurrent Run calls. Programs loaded from disk or cached for another
// kernel instance are re-bound to k's loop pointers (ir.ProgramFromImage,
// Program.Rebind), since counts attribution is by *For identity.
func (c *Cache) GetOrProgram(key string, k *ir.Kernel) (*ir.Program, error) {
	return c.programs.getOrCompute(key, k, func() (*ir.Program, error) { return ir.NewProgram(k) })
}

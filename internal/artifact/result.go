package artifact

// Serving-layer result envelopes ride the same content-addressed store as
// offload artifacts and bytecode programs: deterministic SHA-256 key,
// in-memory LRU → on-disk gob, atomic writes (no single flight: the job
// server coalesces identical jobs itself). A result envelope is the
// rendered output of a fully specified experiment job (workload × config ×
// scale, selection, kernel text, inputs), so the distda-serve job server
// can return an identical re-submission instantly — across requests,
// tenants, server restarts, and (through a shared cache directory)
// machines — without recomputing the simulation.

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"

	"distda/internal/ir"
)

// ResultFormatVersion is bumped whenever the result key derivation or the
// on-disk envelope changes; old entries then simply miss.
const ResultFormatVersion = 2

// ResultKey returns the content address of a result envelope derived from
// the given identity parts (job kind, scale, configuration, kernel text,
// input digests, ... — everything that determines the result bytes). Parts
// are length-prefixed, so distinct part lists never collide by
// concatenation.
//
// The hashed bytes are "distda-result-v<version>\n" then "<len>:<part>\n"
// per part. They are assembled in one buffer and hashed at once: a served
// job derives this key on every submission.
func ResultKey(parts ...string) string {
	n := len("distda-result-v\n") + 20
	for _, p := range parts {
		n += len(p) + 22
	}
	b := make([]byte, 0, n)
	b = append(b, "distda-result-v"...)
	b = strconv.AppendInt(b, ResultFormatVersion, 10)
	b = append(b, '\n')
	for _, p := range parts {
		b = strconv.AppendInt(b, int64(len(p)), 10)
		b = append(b, ':')
		b = append(b, p...)
		b = append(b, '\n')
	}
	sum := sha256.Sum256(b)
	var hexSum [2 * sha256.Size]byte
	hex.Encode(hexSum[:], sum[:])
	return string(hexSum[:])
}

// ResultEnvelope is a cached job result: the rendered output bytes plus
// free-form metadata (job kind, workload, timings, ...). Envelopes are
// immutable once stored; callers must not mutate Body or Meta.
type ResultEnvelope struct {
	Meta map[string]string
	Body []byte
}

// ResultStats returns a snapshot of the result-cache counters.
func (c *Cache) ResultStats() Stats { return c.results.snapshot() }

// GetResult returns the result envelope stored under key, or false on a
// miss. Misses consult the on-disk store when configured. The returned
// envelope is shared and must be treated as read-only.
func (c *Cache) GetResult(key string) (*ResultEnvelope, bool) { return c.results.get(key) }

// PutResult stores the rendered result bytes (and metadata) under key, both
// in memory and — when the cache is disk-backed — on disk. A failed disk
// write is counted and returned; the memory entry stays. body and meta are
// copied; the caller keeps ownership of its slices and map.
func (c *Cache) PutResult(key string, meta map[string]string, body []byte) error {
	env := &ResultEnvelope{Body: append([]byte(nil), body...)}
	if len(meta) > 0 {
		env.Meta = make(map[string]string, len(meta))
		for k, v := range meta {
			env.Meta[k] = v
		}
	}
	return c.results.put(key, env)
}

// savedResult is an envelope's on-disk form. Gob encodes maps in
// randomized order, so the meta is stored as sorted key/value pairs: the
// on-disk bytes are deterministic for a deterministic envelope
// (content-addressed stores should not churn).
type savedResult struct {
	Meta [][2]string
	Body []byte
}

func saveResult(env *ResultEnvelope) savedResult {
	d := savedResult{Body: env.Body}
	keys := make([]string, 0, len(env.Meta))
	for k := range env.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d.Meta = append(d.Meta, [2]string{k, env.Meta[k]})
	}
	return d
}

func loadResult(d savedResult, _ *ir.Kernel) (*ResultEnvelope, error) {
	env := &ResultEnvelope{Body: d.Body}
	if len(d.Meta) > 0 {
		env.Meta = make(map[string]string, len(d.Meta))
		for _, kv := range d.Meta {
			env.Meta[kv[0]] = kv[1]
		}
	}
	return env, nil
}

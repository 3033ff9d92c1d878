package artifact

import (
	"bytes"
	"container/list"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"sync"

	"distda/internal/ir"
)

// Stats are one namespace's cumulative counters. All values are
// deterministic for a deterministic request sequence (single-flight
// collapses racing computations), so they can be added to a profile's
// counters without perturbing worker-count invariance — provided no LRU
// eviction occurred. A counter a namespace never moves stays zero: only
// results miss and store; only artifacts and programs compile and rebind.
type Stats struct {
	Requests int64 // lookups: GetOrCompile, GetOrProgram or GetResult calls
	MemHits  int64 // served from the in-memory LRU
	DiskHits int64 // decoded from the on-disk store
	Misses   int64 // GetResult calls that found nothing
	Compiles int64 // compiled from scratch
	Rebinds  int64 // re-bound to a new kernel instance
	Stores   int64 // PutResult calls
	Evicted  int64 // LRU evictions (capacity pressure)
	Errors   int64 // failed or stale disk loads (treated as misses), failed PutResult writes
}

// store is one namespace of a Cache: an in-memory LRU in front of an
// optional directory of gob files named <key><suffix>, with concurrent
// misses on one key resolved once (single flight). A namespace supplies
// only its codec — toDisk/fromDisk between a value V and its on-disk
// payload D — and, for values bound to a kernel instance, bind.
type store[V comparable, D any] struct {
	suffix   string // file name suffix, e.g. ".artifact.gob"
	version  int    // envelope version; entries written under another miss
	toDisk   func(V) D
	fromDisk func(D, *ir.Kernel) (V, error)
	// bind re-targets v at kernel k, returning v itself when it is already
	// bound to k. Nil for namespaces whose values are kernel-independent.
	bind func(v V, k *ir.Kernel) (V, error)

	dir string
	max int

	mu     sync.Mutex
	ll     *list.List               // front = most recently used
	byKey  map[string]*list.Element // value: *entry[V]
	flight map[string]*flight[V]
	stats  Stats
}

type entry[V any] struct {
	key string
	v   V
}

type flight[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// envelope is the on-disk framing shared by every namespace.
type envelope[D any] struct {
	Version int
	Key     string
	Data    D
}

var errStale = errors.New("artifact: stale disk entry")

func newStore[V comparable, D any](cfg Config, suffix string, version int,
	toDisk func(V) D, fromDisk func(D, *ir.Kernel) (V, error), bind func(V, *ir.Kernel) (V, error)) *store[V, D] {
	max := cfg.MaxEntries
	if max <= 0 {
		max = DefaultMaxEntries
	}
	return &store[V, D]{
		suffix: suffix, version: version, toDisk: toDisk, fromDisk: fromDisk, bind: bind,
		dir: cfg.Dir, max: max,
		ll: list.New(), byKey: map[string]*list.Element{}, flight: map[string]*flight[V]{},
	}
}

func (s *store[V, D]) snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *store[V, D]) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// getOrCompute returns the value stored under key, bound to kernel k.
// Misses consult the disk and otherwise call compute; concurrent callers
// with the same key wait for one resolution.
func (s *store[V, D]) getOrCompute(key string, k *ir.Kernel, compute func() (V, error)) (V, error) {
	s.mu.Lock()
	// Count each external call once — a caller that waited out an
	// in-flight computation goes round the loop again but is still one
	// request, keeping the counters scheduling-independent.
	s.stats.Requests++
	for {
		if el, ok := s.byKey[key]; ok {
			e := el.Value.(*entry[V])
			// Same content, maybe a different kernel instance (e.g. a new
			// matrix build): bind to the caller's loop pointers and keep the
			// re-bound value as the canonical entry.
			bound, err := s.bind(e.v, k)
			if err == nil {
				if bound != e.v {
					e.v = bound
					s.stats.Rebinds++
				}
				s.ll.MoveToFront(el)
				s.stats.MemHits++
				s.mu.Unlock()
				return bound, nil
			}
			// Structural mismatch: the key lied (or the kernel changed under
			// the same name). Drop the entry and compute afresh.
			s.ll.Remove(el)
			delete(s.byKey, key)
			s.stats.Errors++
		}
		if f, ok := s.flight[key]; ok {
			s.mu.Unlock()
			<-f.done
			if f.err != nil {
				var zero V
				return zero, f.err
			}
			// The value is in the LRU now, possibly needing a re-bind.
			s.mu.Lock()
			continue
		}
		f := &flight[V]{done: make(chan struct{})}
		s.flight[key] = f
		s.mu.Unlock()

		f.v, f.err = s.resolve(key, k, compute)

		s.mu.Lock()
		delete(s.flight, key)
		if f.err == nil {
			s.insert(key, f.v)
		}
		s.mu.Unlock()
		close(f.done)
		return f.v, f.err
	}
}

// resolve loads key from disk or computes it. Runs outside the lock.
func (s *store[V, D]) resolve(key string, k *ir.Kernel, compute func() (V, error)) (V, error) {
	if v, ok := s.load(key, k); ok {
		return v, nil
	}
	v, err := compute()
	if err != nil {
		return v, err
	}
	s.mu.Lock()
	s.stats.Compiles++
	s.mu.Unlock()
	if s.dir != "" {
		// Best-effort: a failed disk write leaves a working memory entry.
		_ = s.save(key, v)
	}
	return v, nil
}

// get returns the value stored under key, promoting a disk hit to memory.
func (s *store[V, D]) get(key string) (V, bool) {
	s.mu.Lock()
	s.stats.Requests++
	if el, ok := s.byKey[key]; ok {
		s.ll.MoveToFront(el)
		s.stats.MemHits++
		v := el.Value.(*entry[V]).v
		s.mu.Unlock()
		return v, true
	}
	s.mu.Unlock()

	v, ok := s.load(key, nil)
	s.mu.Lock()
	defer s.mu.Unlock()
	if ok {
		s.insert(key, v)
	} else {
		s.stats.Misses++
	}
	return v, ok
}

// put stores v under key in memory and, when disk-backed, on disk. A failed
// write counts as an error and is returned; the memory entry stays.
func (s *store[V, D]) put(key string, v V) error {
	s.mu.Lock()
	s.stats.Stores++
	s.insert(key, v)
	s.mu.Unlock()
	if s.dir == "" {
		return nil
	}
	err := s.save(key, v)
	if err != nil {
		s.mu.Lock()
		s.stats.Errors++
		s.mu.Unlock()
	}
	return err
}

// insert adds v under key, evicting the LRU tail past capacity. Caller
// holds s.mu.
func (s *store[V, D]) insert(key string, v V) {
	if el, ok := s.byKey[key]; ok {
		el.Value.(*entry[V]).v = v
		s.ll.MoveToFront(el)
		return
	}
	s.byKey[key] = s.ll.PushFront(&entry[V]{key: key, v: v})
	for s.ll.Len() > s.max {
		tail := s.ll.Back()
		s.ll.Remove(tail)
		delete(s.byKey, tail.Value.(*entry[V]).key)
		s.stats.Evicted++
	}
}

func (s *store[V, D]) path(key string) string {
	return filepath.Join(s.dir, key+s.suffix)
}

// load reads, validates and decodes the disk entry for key (bound to k),
// counting a disk hit, or an error for a present but unusable entry — which
// the caller treats as a miss and the next write repairs.
func (s *store[V, D]) load(key string, k *ir.Kernel) (V, bool) {
	var v V
	if s.dir == "" {
		return v, false
	}
	raw, err := os.ReadFile(s.path(key))
	if err == nil {
		var env envelope[D]
		if err = gob.NewDecoder(bytes.NewReader(raw)).Decode(&env); err == nil {
			if env.Version != s.version || env.Key != key {
				err = errStale
			} else {
				v, err = s.fromDisk(env.Data, k)
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil {
		s.stats.DiskHits++
		return v, true
	}
	if !os.IsNotExist(err) {
		s.stats.Errors++
	}
	var zero V
	return zero, false
}

// save writes v's envelope atomically.
func (s *store[V, D]) save(key string, v V) error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&envelope[D]{Version: s.version, Key: key, Data: s.toDisk(v)}); err != nil {
		return err
	}
	return WriteFileAtomic(s.path(key), buf.Bytes())
}

// WriteFileAtomic replaces path with data so that readers see either the
// old file or the whole new one, never a prefix: the bytes go to a
// temporary file in path's directory, which is then renamed over path. The
// temporary file is removed on any error.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

package harness

import (
	"container/list"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// CellCache persists content-addressed cell results. Implementations must
// be safe for concurrent use: the engine calls them from every worker
// goroutine. Get returns ok=false for a miss; a read error is reported but
// should be treated as a miss by callers (a corrupt or unreadable entry
// must degrade to re-simulation, never fail the run).
type CellCache interface {
	Get(key string) (Run, bool, error)
	Put(key string, r Run) error
}

// Resolver is the optional CellCache extension for caches that can
// resolve a batch of cells, not just look up keys — the farm HTTPCache in
// compute mode, whose single streaming request asks the farm to simulate
// whatever it does not hold. The engine hands it every cell of a request
// it could not answer otherwise in one call, keys[i] being jobs[i]'s key
// under the caller's version stamp; a lone miss is a batch of one. Each
// cell is handed to deliver as it arrives (already validated by
// the implementation; calls are serialized and all happen before Resolve
// returns); (0, nil) means the cache has no compute path and the caller
// loses nothing by simulating locally. The failure contract matches the
// rest of the cache surface: deliver what arrived, return the error, and
// the engine resolves the remainder itself — a broken resolver costs
// time, never the run. A resolver must NOT fall back to simulating
// locally itself; the engine owns that path.
type Resolver interface {
	Resolve(ctx context.Context, jobs []CellJob, keys []string, opts Options, deliver func(key string, r Run)) (int, error)
}

// ---------------------------------------------------------------------------
// In-memory LRU.

// MemoryCache is a bounded in-memory LRU cell store — the fast layer of
// every tiered stack and the default cache of a Session created without
// one.
type MemoryCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recent
	byKey map[string]*list.Element
}

type memEntry struct {
	key string
	run Run
}

// DefaultMemoryCacheSize holds every cell of the full evaluation (756)
// with generous headroom for option sweeps and drop-in schemes.
const DefaultMemoryCacheSize = 8192

// NewMemoryCache returns an LRU cache bounded to capacity entries (zero or
// negative: DefaultMemoryCacheSize).
func NewMemoryCache(capacity int) *MemoryCache {
	if capacity <= 0 {
		capacity = DefaultMemoryCacheSize
	}
	return &MemoryCache{
		cap:   capacity,
		order: list.New(),
		byKey: make(map[string]*list.Element),
	}
}

// Get returns the cached run and bumps its recency.
func (c *MemoryCache) Get(key string) (Run, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return Run{}, false, nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*memEntry).run, true, nil
}

// Put inserts or refreshes an entry, evicting the least recently used one
// beyond capacity.
func (c *MemoryCache) Put(key string, r Run) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*memEntry).run = r
		c.order.MoveToFront(el)
		return nil
	}
	c.byKey[key] = c.order.PushFront(&memEntry{key: key, run: r})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*memEntry).key)
	}
	return nil
}

// Len returns the number of cached entries.
func (c *MemoryCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// ---------------------------------------------------------------------------
// On-disk binary store.

// DiskCache stores one binary entry per cell (<key>.cell, schema
// CellSchema; see cellcodec.go) under a directory — the persistent layer
// behind the cmds' -cache flag. Writes are atomic (temp file + rename), so
// concurrent processes sharing a directory see whole entries or none.
// Entries of the old JSON store (<key>.json, schema v1) are never read:
// they simply miss, and are safe to delete.
type DiskCache struct {
	dir string
}

// NewDiskCache opens (creating if needed) an on-disk cell store.
func NewDiskCache(dir string) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: cell cache dir: %w", err)
	}
	return &DiskCache{dir: dir}, nil
}

func (c *DiskCache) path(key string) string {
	return filepath.Join(c.dir, key+".cell")
}

// Get loads one entry. A corrupt entry, one of another schema or
// core.Stats layout, one stored under a foreign key, or one whose scheme
// name no longer resolves to its run's kind is a miss with the reason
// reported as the error.
func (c *DiskCache) Get(key string) (Run, bool, error) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return Run{}, false, nil
		}
		return Run{}, false, err
	}
	gotKey, scheme, r, err := decodeCell(data)
	if err == nil {
		err = ValidateCell(gotKey, key, scheme, r)
	}
	if err != nil {
		return Run{}, false, fmt.Errorf("harness: cell cache %s: %w", c.path(key), err)
	}
	return r, true, nil
}

// Put writes one entry atomically. Every failure path is wrapped with the
// cell key so the engine's "cell cache write" warning names the entry that
// failed, not just the syscall — an unwritable directory (read-only mount,
// quota, permissions) degrades the whole run to warn-and-continue, never
// to an error.
func (c *DiskCache) Put(key string, r Run) error {
	tmp, err := os.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		return fmt.Errorf("harness: cell cache write %s: %w", key, err)
	}
	if _, err := tmp.Write(encodeCell(key, r.Scheme.String(), r)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: cell cache write %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: cell cache write %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: cell cache write %s: %w", key, err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Tiering.

// TieredCache layers caches fastest-first: Get walks the layers in order
// and backfills every faster layer on a hit; Put writes through to all.
type TieredCache struct {
	layers []CellCache
}

// NewTieredCache composes caches fastest-first.
func NewTieredCache(layers ...CellCache) *TieredCache {
	return &TieredCache{layers: layers}
}

// Get returns the first hit, promoting it into the missed faster layers.
func (c *TieredCache) Get(key string) (Run, bool, error) {
	return getPromoting(c.layers, key)
}

// getPromoting returns the first hit among layers, promoting it into the
// missed layers before it.
func getPromoting(layers []CellCache, key string) (Run, bool, error) {
	var firstErr error
	for i, layer := range layers {
		r, ok, err := layer.Get(key)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if ok {
			for _, upper := range layers[:i] {
				if err := upper.Put(key, r); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			return r, true, firstErr
		}
	}
	return Run{}, false, firstErr
}

// Resolve hands jobs to the first layer that can resolve them (a Resolver
// — the farm client as the slowest layer of the canonical stack). The
// faster layers answer their own hits first, so only the cells none of
// them holds are forwarded, and every cell the resolver delivers is
// backfilled into them on the way through. With no such layer it is a
// clean no-op that touches no layer: the engine simulates locally.
func (c *TieredCache) Resolve(ctx context.Context, jobs []CellJob, keys []string, opts Options, deliver func(key string, r Run)) (int, error) {
	for i, layer := range c.layers {
		res, ok := layer.(Resolver)
		if !ok {
			continue
		}
		upper := c.layers[:i]
		hit := make([]bool, len(jobs))
		hits := 0
		for k, key := range keys {
			// A read error is a miss here: the resolver answers the cell.
			if r, ok, _ := getPromoting(upper, key); ok {
				hit[k] = true
				hits++
				deliver(key, r)
			}
		}
		if hits == len(jobs) {
			return hits, nil
		}
		misses, missKeys := jobs, keys // usually nothing hit: no copy
		if hits > 0 {
			misses, missKeys = nil, nil
			for k := range jobs {
				if !hit[k] {
					misses, missKeys = append(misses, jobs[k]), append(missKeys, keys[k])
				}
			}
		}
		n, err := res.Resolve(ctx, misses, missKeys, opts, func(key string, r Run) {
			for _, u := range upper {
				_ = u.Put(key, r) // best-effort backfill, like Get's promotion
			}
			deliver(key, r)
		})
		return hits + n, err
	}
	return 0, nil
}

// Put writes through every layer, returning the first error.
func (c *TieredCache) Put(key string, r Run) error {
	var firstErr error
	for _, layer := range c.layers {
		if err := layer.Put(key, r); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

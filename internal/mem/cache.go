package mem

import "fmt"

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name     string
	SizeKB   int // total capacity
	Ways     int
	LineB    int    // line size in bytes (power of two)
	HitLat   uint64 // cycles from access to data for a hit
	FillLat  uint64 // additional cycles to fill from the level below
	Prefetch bool   // enable the per-PC stride prefetcher at this level
}

// Validate checks the configuration for structural sanity.
func (c CacheConfig) Validate() error {
	if c.SizeKB <= 0 || c.Ways <= 0 || c.LineB <= 0 {
		return fmt.Errorf("mem: %s: non-positive geometry %+v", c.Name, c)
	}
	if c.LineB&(c.LineB-1) != 0 {
		return fmt.Errorf("mem: %s: line size %d not a power of two", c.Name, c.LineB)
	}
	lines := c.SizeKB * 1024 / c.LineB
	if lines%c.Ways != 0 {
		return fmt.Errorf("mem: %s: %d lines not divisible by %d ways", c.Name, lines, c.Ways)
	}
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: %s: %d sets not a power of two", c.Name, sets)
	}
	return nil
}

type cacheLine struct {
	tag     uint64
	valid   bool
	dirty   bool
	lastUse uint64 // LRU stamp
	availAt uint64 // cycle at which an in-flight fill completes
}

// Cache is one set-associative, write-back, write-allocate cache level with
// true-LRU replacement. It models tags and fill timing only; data values
// live in Main.
type Cache struct {
	cfg       CacheConfig
	sets      [][]cacheLine
	lineShift uint
	setMask   uint64
	stamp     uint64

	// Statistics.
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Fills     uint64
}

// NewCache builds a cache from its configuration. It panics on an invalid
// configuration: geometries are compile-time constants of the experiment
// harness, never user input.
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lines := cfg.SizeKB * 1024 / cfg.LineB
	sets := lines / cfg.Ways
	// One backing array for every line, sliced per set: a set is a
	// full-capacity window, so no set can grow into its neighbour.
	backing := make([]cacheLine, lines)
	c := &Cache{cfg: cfg, sets: make([][]cacheLine, sets)}
	for i := range c.sets {
		c.sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	for c.cfg.LineB>>c.lineShift != 1 {
		c.lineShift++
	}
	c.setMask = uint64(sets - 1)
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	l := addr >> c.lineShift
	return l & c.setMask, l >> 0 // tag keeps full line address for simplicity
}

// Lookup probes the cache without modifying replacement state. It returns
// whether the line is present and, if so, the cycle at which its fill
// completes (0 for long-resident lines).
func (c *Cache) Lookup(addr uint64) (present bool, availAt uint64) {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			return true, ln.availAt
		}
	}
	return false, 0
}

// Access performs a demand access at cycle now. It returns the cycle at
// which the data is available from this level and whether it was a hit.
// On a hit to a line still being filled, availability is the fill time
// (hit-under-fill). On a miss the caller is responsible for filling via
// Fill once the lower level responds.
func (c *Cache) Access(addr uint64, now uint64, write bool) (availAt uint64, hit bool) {
	c.Accesses++
	c.stamp++
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			c.Hits++
			ln.lastUse = c.stamp
			if write {
				ln.dirty = true
			}
			avail := now + c.cfg.HitLat
			if ln.availAt > avail {
				avail = ln.availAt
			}
			return avail, true
		}
	}
	c.Misses++
	return 0, false
}

// Fill installs the line containing addr, completing at cycle doneAt,
// evicting the LRU way. Filling an already-present line only refreshes its
// availability if the new fill completes earlier.
func (c *Cache) Fill(addr uint64, doneAt uint64, write bool) {
	c.Fills++
	c.stamp++
	set, tag := c.index(addr)
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			if doneAt < ln.availAt {
				ln.availAt = doneAt
			}
			if write {
				ln.dirty = true
			}
			ln.lastUse = c.stamp
			return
		}
		if !ln.valid {
			victim = i
			oldest = 0
			break
		}
		if ln.lastUse < oldest {
			oldest = ln.lastUse
			victim = i
		}
	}
	ln := &c.sets[set][victim]
	if ln.valid {
		c.Evictions++
	}
	*ln = cacheLine{tag: tag, valid: true, dirty: write, lastUse: c.stamp, availAt: doneAt}
}

// Contains reports whether the line holding addr is resident. It is the
// side-channel probe used by the Spectre attack harness: a real attacker
// measures access latency; the simulator can simply inspect the tag array.
func (c *Cache) Contains(addr uint64) bool {
	present, _ := c.Lookup(addr)
	return present
}

// InvalidateAll empties the cache (used by the attack harness to prime a
// clean probe array state).
func (c *Cache) InvalidateAll() {
	for s := range c.sets {
		for w := range c.sets[s] {
			c.sets[s][w] = cacheLine{}
		}
	}
}

// InvalidateLine removes the line containing addr if present (clflush).
func (c *Cache) InvalidateLine(addr uint64) {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		if c.sets[set][i].valid && c.sets[set][i].tag == tag {
			c.sets[set][i] = cacheLine{}
			return
		}
	}
}

// LineAddr returns the line-aligned address for addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr &^ (uint64(c.cfg.LineB) - 1) }

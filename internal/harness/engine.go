package harness

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/workloads"
)

// The cell engine. Every (config, scheme, benchmark, options) cell is an
// independent, content-addressed job: its key is CellFingerprint of the
// inputs plus a simulator version stamp. The engine executes each key at
// most once — concurrent requests for the same key coalesce onto one
// simulation (single-flight), repeated requests are served from the
// CellCache — schedules misses on the shared bounded pool (ParallelDo),
// and streams every completed cell to its subscribers. Sessions
// (session.go) assemble matrices and experiments on top of it.

// CellJob names one cell to execute.
type CellJob struct {
	Config core.Config
	Scheme core.SchemeKind
	Bench  workloads.Profile
}

// CellResult is one completed cell, streamed to subscribers the moment it
// resolves (from cache or simulation) — completion order, not enumeration
// order.
type CellResult struct {
	Key    string
	Job    CellJob
	Run    Run
	Cached bool // served from the CellCache without simulating
}

// EngineStats is the engine's cell accounting. Cells = Hits + Simulated:
// every request either hit the cache or ran the simulator (single-flight
// waiters count as hits — the work ran once). Coalesced splits the hits:
// it counts the waiters that joined an in-flight execution rather than
// reading a finished cache entry.
type EngineStats struct {
	Cells     int    // cell requests resolved
	Hits      int    // served from the cache (or a coalesced in-flight run)
	Coalesced int    // subset of Hits: waiters that joined an in-flight run
	Simulated int    // actually simulated by this engine
	SimCycles uint64 // simulated cycles executed (warmup included), misses only
}

// HitRate returns the fraction of requests served without simulation.
func (s EngineStats) HitRate() float64 {
	if s.Cells == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Cells)
}

// flight is one in-progress cell resolution; concurrent requests for the
// same key wait on done and share run/err instead of re-simulating.
type flight struct {
	done chan struct{}
	run  Run
	err  error
}

// Engine executes content-addressed cells at most once per key.
type Engine struct {
	version  string
	cache    CellCache     // may be nil: single-flight dedup only
	resolver Resolver      // the cache's compute path; nil when it has none
	gate     chan struct{} // bounds concurrent simulations (nil: unbounded)

	mu       sync.Mutex
	inflight map[string]*flight
	stats    EngineStats

	emitMu  sync.Mutex // serializes progress lines and subscriber calls
	subsMu  sync.Mutex
	subs    map[int]func(CellResult)
	nextSub int
}

// NewEngine returns an engine persisting through cache under a
// fingerprint version stamp (empty: core.SimVersion). With a nil cache
// only concurrent requests coalesce — at-most-once execution across
// sequential requests needs the cache, which is why NewSession always
// supplies one.
func NewEngine(cache CellCache, version string) *Engine {
	if version == "" {
		version = core.SimVersion
	}
	return &Engine{
		version:  version,
		cache:    cache,
		resolver: resolverOf(cache),
		inflight: make(map[string]*flight),
		subs:     make(map[int]func(CellResult)),
	}
}

// resolverOf returns c's compute path: c itself when it is a Resolver that
// can resolve, nil when it cannot — a tiered stack resolves only through
// a Resolver layer, and without one the engine skips batching entirely.
func resolverOf(c CellCache) Resolver {
	switch c := c.(type) {
	case *TieredCache:
		for _, layer := range c.layers {
			if resolverOf(layer) != nil {
				return c
			}
		}
		return nil
	case Resolver:
		return c
	}
	return nil
}

// Stats returns a snapshot of the engine's cell accounting.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// SetSimulationBound caps concurrent simulations at n (zero or negative:
// unbounded). Only the simulator run itself queues on the bound — cache
// hits, coalesced waiters, and resolver forwards are never held up — so a
// server can bound its local compute load to the CPU count without
// serializing its I/O. Set before the engine is shared; the bound is not
// safe to change mid-run.
func (e *Engine) SetSimulationBound(n int) {
	if n > 0 {
		e.gate = make(chan struct{}, n)
	} else {
		e.gate = nil
	}
}

// Subscribe registers fn to receive every completed cell until the
// returned cancel function runs. Calls are serialized by the engine but
// arrive in completion order; fn must not block long (it stalls the
// completing worker) and must not call back into the engine.
func (e *Engine) Subscribe(fn func(CellResult)) (cancel func()) {
	e.subsMu.Lock()
	id := e.nextSub
	e.nextSub++
	e.subs[id] = fn
	e.subsMu.Unlock()
	return func() {
		e.subsMu.Lock()
		delete(e.subs, id)
		e.subsMu.Unlock()
	}
}

// emit reports one completed cell. The done counter is advanced inside
// the emission critical section so progress lines and subscriber calls
// carry strictly monotone [done/total] numbering.
func (e *Engine) emit(r CellResult, opts Options, done *int, total int) {
	e.emitMu.Lock()
	defer e.emitMu.Unlock()
	*done++
	suffix := ""
	if r.Cached {
		suffix = " (cached)"
	}
	opts.logf("harness: [%d/%d] %s/%s/%s IPC %.4f%s",
		*done, total, r.Run.Config, r.Run.Scheme, r.Run.Bench, r.Run.IPC, suffix)
	e.subsMu.Lock()
	fns := make([]func(CellResult), 0, len(e.subs))
	for _, fn := range e.subs {
		fns = append(fns, fn)
	}
	e.subsMu.Unlock()
	for _, fn := range fns {
		fn(r)
	}
}

// Key returns the content-addressed key of a job under this engine's
// version stamp and the result-affecting fields of opts.
func (e *Engine) Key(job CellJob, opts Options) string {
	return CellFingerprint(e.version, job.Config, job.Scheme, job.Bench, opts)
}

// claim returns key's in-flight resolution and whether the caller now
// holds it: a holder must complete the flight on every path, a non-holder
// waits on its done channel.
func (e *Engine) claim(key string) (*flight, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if f, busy := e.inflight[key]; busy {
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	e.inflight[key] = f
	return f, true
}

// complete publishes a held flight's outcome, releases its key and wakes
// its waiters. Errors are never cached — a waiter that sees one claims the
// key and retries.
func (e *Engine) complete(key string, f *flight, res CellResult, err error) {
	f.run, f.err = res.Run, err
	e.mu.Lock()
	delete(e.inflight, key)
	if err == nil {
		e.stats.Cells++
		if res.Cached {
			e.stats.Hits++
		} else {
			e.stats.Simulated++
			e.stats.SimCycles += res.Run.TotalCycles
		}
	}
	e.mu.Unlock()
	close(f.done)
}

// cell resolves one key: cache lookup, then single-flight simulation.
func (e *Engine) cell(ctx context.Context, job CellJob, opts Options) (CellResult, error) {
	key := e.Key(job, opts)
	for {
		f, held := e.claim(key)
		if held {
			res, err := e.resolve(ctx, key, job, opts, true)
			e.complete(key, f, res, err)
			return res, err
		}
		<-f.done
		if f.err != nil {
			continue // the holder failed; claim the key and retry
		}
		res := CellResult{Key: key, Job: job, Run: f.run, Cached: true} // coalesced onto the in-flight execution
		e.mu.Lock()
		e.stats.Cells++
		e.stats.Hits++
		e.stats.Coalesced++
		e.mu.Unlock()
		return res, nil
	}
}

// resolve serves key from the cache or simulates it; ask says whether a
// Resolver cache should be asked for the cell on a miss.
func (e *Engine) resolve(ctx context.Context, key string, job CellJob, opts Options, ask bool) (CellResult, error) {
	if e.cache != nil {
		if r, ok := e.lookup(ctx, key, job, opts, ask); ok {
			return CellResult{Key: key, Job: job, Run: r, Cached: true}, nil
		}
	}
	if e.gate != nil {
		e.gate <- struct{}{}
	}
	r, err := RunOne(job.Config, job.Scheme, job.Bench, opts)
	if e.gate != nil {
		<-e.gate
	}
	if err != nil {
		return CellResult{}, err
	}
	if e.cache != nil {
		if err := e.cache.Put(key, r); err != nil {
			opts.logf("harness: cell cache write %s: %v", key, err)
		}
	}
	return CellResult{Key: key, Job: job, Run: r}, nil
}

// lookup reads key from the cache and, on a miss when ask is set, asks a
// Resolver cache to resolve the job as a batch of one — the farm client in
// compute mode simulates it remotely. Every failure is a miss, reported
// through opts.Progress: the engine re-simulates, never fails the run.
func (e *Engine) lookup(ctx context.Context, key string, job CellJob, opts Options, ask bool) (Run, bool) {
	r, ok, err := e.cache.Get(key)
	if ok {
		return r, true
	}
	if err != nil {
		opts.logf("harness: cell cache read %s: %v (re-simulating)", key, err)
	}
	if !ask || e.resolver == nil {
		return Run{}, false
	}
	found := false
	_, err = e.resolver.Resolve(ctx, []CellJob{job}, []string{key}, opts, func(k string, got Run) {
		if k == key {
			r, found = got, true
		}
	})
	if err != nil && !found {
		opts.logf("harness: cell resolve %s: %v (re-simulating)", key, err)
	}
	return r, found
}

// RunCells resolves jobs on a bounded pool of opts.Parallelism workers
// (zero: all CPUs) and returns their runs in job order. Semantics match
// the evaluation engine's: fail-fast on the first error, prompt
// cancellation through ctx, results independent of scheduling order.
// Progress lines and subscriber streams fire per cell in completion order.
//
// With a Resolver cache, RunCells first claims every key no other request
// is resolving and hands the claimed batch to the resolver in one call —
// one streaming request for a cold remote experiment, not one per cell.
// Each delivered cell completes its key's single-flight entry and is
// emitted the moment it arrives. Cells the batch did not deliver, and
// keys other requests were already resolving, then go through the
// per-cell path: cache lookup, a batch of one (unless the batch already
// was that one cell), local simulation.
func (e *Engine) RunCells(ctx context.Context, jobs []CellJob, opts Options) ([]Run, error) {
	runs := make([]Run, len(jobs))
	var done int
	finish := func(i int, res CellResult) {
		runs[i] = res.Run
		e.emit(res, opts, &done, len(jobs))
	}
	keys := make([]string, len(jobs))
	held := make([]*flight, len(jobs)) // flights this call holds, by job index
	finished := make([]bool, len(jobs))
	batched := 0 // cells handed to the resolver in one batch
	if e.resolver != nil {
		batch := make(map[string]int, len(jobs))
		for i, job := range jobs {
			keys[i] = e.Key(job, opts)
			if f, mine := e.claim(keys[i]); mine {
				held[i] = f
				batch[keys[i]] = i
			}
		}
		batched = len(batch)
		claimed, claimedKeys := jobs, keys // usually every key: no copy
		if batched < len(jobs) {
			claimed, claimedKeys = nil, nil
			for i, f := range held {
				if f != nil {
					claimed, claimedKeys = append(claimed, jobs[i]), append(claimedKeys, keys[i])
				}
			}
		}
		if batched > 0 {
			n, err := e.resolver.Resolve(ctx, claimed, claimedKeys, opts, func(key string, r Run) {
				i, ok := batch[key]
				if !ok {
					return // not a key this batch asked for
				}
				delete(batch, key)
				res := CellResult{Key: key, Job: jobs[i], Run: r, Cached: true}
				e.complete(key, held[i], res, nil)
				held[i], finished[i] = nil, true
				finish(i, res)
			})
			if err != nil {
				opts.logf("harness: resolve %d cells: %v (%d delivered; resolving the rest per cell)",
					len(claimed), err, n)
			}
		}
	}
	var rest []int
	for i := range jobs {
		if !finished[i] {
			rest = append(rest, i)
		}
	}
	err := ParallelDo(ctx, len(rest), opts.Parallelism, func(k int) error {
		i := rest[k]
		var res CellResult
		var err error
		if f := held[i]; f != nil {
			res, err = e.resolve(ctx, keys[i], jobs[i], opts, batched > 1)
			e.complete(keys[i], f, res, err)
			held[i] = nil
		} else {
			res, err = e.cell(ctx, jobs[i], opts)
		}
		if err != nil {
			return err
		}
		finish(i, res)
		return nil
	})
	if err != nil {
		// Release the flights the pool abandoned, so their waiters retry.
		for i, f := range held {
			if f != nil {
				e.complete(keys[i], f, CellResult{}, err)
			}
		}
		return nil, err
	}
	return runs, nil
}

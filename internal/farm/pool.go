package farm

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
)

// The worker pool. A coordinator configured with worker URLs shards cold
// cells across the *healthy* subset by rendezvous (highest-random-weight)
// hashing: every key scores every worker and lands on the maximum. The placement is minimal-disruption by construction — removing
// a worker only remaps the keys that worker owned, so a death re-shards
// its slice evenly across the survivors while every other cell stays on
// the worker whose cache already holds it (and a revival reclaims exactly
// its old slice).
//
// A batch of cold cells leaves as one sub-stream per owning worker: an
// experiment request naming the worker's cells as a subset of the batch's
// cross product, the same request a client makes for a whole experiment.
//
// Health is tracked two ways: a background prober GETs every worker's
// /v1/stats on a fixed cadence and flips workers dead or alive, and a
// failed sub-stream marks its worker dead immediately (the probe revives
// it when it answers again). The failed sub-stream's undelivered cells
// re-shard onto the remaining healthy workers; only when none remain — or
// the failure indicts the jobs rather than the worker — does the caller
// fall back to coordinator-local simulation, the universal last resort.
// Workers are plain shadowbindingd processes without -workers of their
// own (one forward hop — a worker never re-forwards).

// worker is one tracked worker endpoint.
type worker struct {
	url     string
	healthy atomic.Bool
}

type workerPool struct {
	workers []*worker
	client  *http.Client
	timeout time.Duration
	log     *slog.Logger

	stop chan struct{} // closed by Close
	done chan struct{} // closed when the probe loop exits
}

// probeTimeout bounds one health probe; a worker that cannot answer its
// stats endpoint this fast is not going to answer a compute request.
const probeTimeout = 2 * time.Second

// newWorkerPool tracks urls, forwarding with timeout per request and
// probing health every probeEvery (zero or negative: probing disabled —
// passive failure detection still applies, but a dead worker is only
// revived by a probe, so non-test callers want it on).
func newWorkerPool(urls []string, timeout, probeEvery time.Duration, log *slog.Logger) *workerPool {
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	p := &workerPool{
		client:  &http.Client{},
		timeout: timeout,
		log:     log,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, u := range urls {
		w := &worker{url: strings.TrimRight(u, "/")}
		w.healthy.Store(true)
		p.workers = append(p.workers, w)
	}
	if probeEvery > 0 {
		go p.probeLoop(probeEvery)
	} else {
		close(p.done)
	}
	return p
}

// Close stops the probe loop and waits for it to exit.
func (p *workerPool) Close() {
	close(p.stop)
	<-p.done
}

// probeLoop polls every worker's stats endpoint on a fixed cadence,
// flipping health on transitions.
func (p *workerPool) probeLoop(every time.Duration) {
	defer close(p.done)
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
			p.probeAll()
		}
	}
}

// probeAll probes every worker once.
func (p *workerPool) probeAll() {
	for _, w := range p.workers {
		healthy := p.probe(w.url)
		if w.healthy.Swap(healthy) != healthy {
			if healthy {
				p.log.Info("worker revived", "worker", w.url)
			} else {
				p.log.Warn("worker down (probe)", "worker", w.url)
			}
		}
	}
}

// probe reports whether one worker answers its stats endpoint.
func (p *workerPool) probe(url string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+StatsPath, nil)
	if err != nil {
		return false
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return false
	}
	drainClose(resp.Body)
	return resp.StatusCode == http.StatusOK
}

// markDead flips one worker unhealthy after a failed forward — passive
// detection between probes, so one timeout is paid once, not per key.
func (p *workerPool) markDead(url string, err error) {
	for _, w := range p.workers {
		if w.url == url && w.healthy.Swap(false) {
			p.log.Warn("worker down (forward failed)", "worker", url, "err", err)
		}
	}
}

// statuses snapshots every worker's health for /v1/stats.
func (p *workerPool) statuses() []WorkerStatus {
	out := make([]WorkerStatus, len(p.workers))
	for i, w := range p.workers {
		out[i] = WorkerStatus{URL: w.url, Healthy: w.healthy.Load()}
	}
	return out
}

// rendezvousScore is the HRW weight of (worker, key): FNV-1a over the
// worker URL, a separator, and the key. Deterministic across processes —
// any coordinator shards a warm fleet identically.
func rendezvousScore(url, key string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, url) //nolint:errcheck // hash writes cannot fail
	h.Write([]byte{0})
	io.WriteString(h, key) //nolint:errcheck
	return h.Sum64()
}

// pick returns the healthy worker with the highest rendezvous score for
// key; "" when none is healthy. Ties break on URL order so pick stays
// deterministic.
func (p *workerPool) pick(key string) string {
	var best string
	var bestScore uint64
	for _, w := range p.workers {
		if !w.healthy.Load() {
			continue
		}
		s := rendezvousScore(w.url, key)
		if best == "" || s > bestScore || (s == bestScore && w.url < best) {
			best, bestScore = w.url, s
		}
	}
	return best
}

// errWorkerIdle cancels a sub-stream whose worker sent no cell for a whole
// WorkerTimeout.
var errWorkerIdle = errors.New("farm: worker sent no cell within the worker timeout")

// subStream is one worker's share of a batch: the request for the jobs
// it owns under rendezvous hashing, and their keys.
type subStream struct {
	url  string
	wire harness.ExperimentJobWire
	keys map[string]bool
}

// shard groups the pending jobs by rendezvous owner among the healthy
// workers, one sub-stream each; nil when no healthy worker remains.
func (p *workerPool) shard(jobs []harness.CellJob, keys []string, pending map[string]bool, opts harness.Options) []*subStream {
	byURL := map[string]*subStream{}
	owned := map[*subStream][]harness.CellJob{}
	var out []*subStream
	for i, j := range jobs {
		if !pending[keys[i]] {
			continue
		}
		url := p.pick(keys[i])
		if url == "" {
			return nil
		}
		ss := byURL[url]
		if ss == nil {
			ss = &subStream{url: url, keys: map[string]bool{}}
			byURL[url] = ss
			out = append(out, ss)
		}
		owned[ss] = append(owned[ss], j)
		ss.keys[keys[i]] = true
	}
	for _, ss := range out {
		ss.wire = harness.WireJobs(owned[ss], opts)
	}
	return out
}

// stream runs one sub-stream, handing each streamed cell to fn. The
// pool's timeout bounds the wait for each next cell, not the whole stream,
// which legitimately lasts as long as the worker simulates.
func (p *workerPool) stream(ctx context.Context, ss *subStream, fn func(CellEnvelope) error) error {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	idle := time.AfterFunc(p.timeout, func() { cancel(errWorkerIdle) })
	defer idle.Stop()
	sc := &StreamClient{base: ss.url, hc: p.client, identity: true}
	n, err := sc.Experiment(ctx, ss.wire, func(env CellEnvelope) error {
		idle.Reset(p.timeout)
		return fn(env)
	})
	if cause := context.Cause(ctx); err != nil && errors.Is(cause, errWorkerIdle) {
		return &StreamError{Reason: "transport", Delivered: n, Err: cause}
	}
	if err == nil && n != len(ss.keys) {
		err = &StreamError{Reason: "protocol", Delivered: n,
			Err: fmt.Errorf("farm: worker streamed %d cells for %d", n, len(ss.keys))}
	}
	return err
}

// poolLayer adapts the worker pool into a Resolver cache layer — the
// slowest tier of the coordinator engine's stack. A batch is split by
// rendezvous owner and each worker's share travels as one sub-stream, all
// of them concurrently. A delivered cell is a cache hit whose backfill
// adopts the worker's result into the local store. A worker that fails
// mid-stream is marked dead and only its undelivered cells are re-sharded
// over the survivors; a worker's 4xx indicts the jobs, not the worker, and
// ends the batch. Whatever stays undelivered is a miss (plus an error),
// which the engine degrades to bounded local simulation, the universal
// fallback. Streams outlive a cancelled caller (context.WithoutCancel): a
// client hanging up must not read as a worker failure.
type poolLayer struct{ s *Server }

func (pl *poolLayer) Get(string) (harness.Run, bool, error) { return harness.Run{}, false, nil }
func (pl *poolLayer) Put(string, harness.Run) error         { return nil }

func (pl *poolLayer) Resolve(ctx context.Context, jobs []harness.CellJob, keys []string, opts harness.Options, deliver func(string, harness.Run)) (int, error) {
	ctx = context.WithoutCancel(ctx)
	pending := make(map[string]bool, len(keys))
	for _, k := range keys {
		pending[k] = true
	}
	var (
		mu        sync.Mutex // serializes deliver and the bookkeeping below
		delivered int
		lastErr   error
		rejection error
	)
	for len(pending) > 0 {
		shards := pl.s.pool.shard(jobs, keys, pending, opts)
		if shards == nil {
			return delivered, lastErr // nil when nothing failed: a quiet miss
		}
		failed := false
		var wg sync.WaitGroup
		for _, ss := range shards {
			wg.Add(1)
			go func() {
				defer wg.Done()
				err := pl.s.pool.stream(ctx, ss, func(env CellEnvelope) error {
					mu.Lock()
					defer mu.Unlock()
					if !ss.keys[env.Key] || !pending[env.Key] {
						return &StreamError{Reason: "protocol",
							Err: fmt.Errorf("farm: worker streamed key %s outside its sub-stream (version skew?)", env.Key)}
					}
					delete(pending, env.Key)
					delivered++
					pl.s.forwarded.Add(1)
					deliver(env.Key, env.Run)
					return nil
				})
				if err == nil {
					pl.s.log.Info("forwarded", "worker", ss.url, "cells", len(ss.keys))
					return
				}
				pl.s.workerErrs.Add(1)
				pl.s.log.Warn("worker sub-stream failed", "worker", ss.url, "cells", len(ss.keys), "err", err)
				mu.Lock()
				defer mu.Unlock()
				if rejected(err) {
					rejection = err
					return
				}
				pl.s.pool.markDead(ss.url, err)
				lastErr, failed = err, true
			}()
		}
		wg.Wait()
		if rejection != nil {
			return delivered, rejection
		}
		if !failed {
			break
		}
	}
	return delivered, nil
}

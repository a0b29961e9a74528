package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	sb "repro"
	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/harness"
)

// The traced run. Spans and counts are recorded from the benchmark's own
// code around its calls into each layer: cache tiers are wrapped to time
// their calls, the farm client's round trips go through a counting
// transport, and core, workloads, mem and branch are measured by
// re-simulating a fixed cell sample directly through Profile.Build,
// core.New and Core.Run. Every tracer method is a no-op on a nil tracer,
// which is how untraced passes run.

// span is one timed interval at a layer boundary; Parent is the span
// that caused it (0 for none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
}

// maxSpans caps the spans a run keeps in memory and writes out; later
// spans are counted but not kept (timings and counts are still recorded).
const maxSpans = 100_000

// tracer collects the per-layer measurements of the traced passes.
type tracer struct {
	start time.Time
	cur   atomic.Int64 // span that tier calls and round trips belong to

	mu           sync.Mutex
	spans        []span
	dropped      int                  // spans beyond maxSpans
	calls        map[string][]float64 // µs per tier call: mem.get, disk.put, ...
	keyUs        []float64
	renderMs     []float64
	diskBytes    int64
	hits, cells  int64
	requests     map[string]int64
	bytesIn      int64
	bytesOut     int64
	experimentMs []float64
	gapMs        []float64
	farm         farmDelta
	clientSim    int64

	core coreTrace
}

func newTracer() *tracer {
	return &tracer{start: time.Now(), calls: make(map[string][]float64), requests: make(map[string]int64)}
}

func (t *tracer) since() int64 { return time.Since(t.start).Microseconds() }

// begin opens a span and returns its id, 0 when the span is not kept.
func (t *tracer) begin(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.since()})
	return id
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.since()
}

// current returns the span that calls made now belong to.
func (t *tracer) current() int64 {
	if t == nil {
		return 0
	}
	return t.cur.Load()
}

// enter makes id the current span until the returned restore runs.
func (t *tracer) enter(id int64) (restore func()) {
	if t == nil {
		return func() {}
	}
	prev := t.cur.Swap(id)
	return func() { t.cur.Store(prev) }
}

// call records one timed tier call that began at start.
func (t *tracer) call(name string, start time.Time) {
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls[name] = append(t.calls[name], float64(end.Sub(start))/1e3)
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{
		ID:     int64(len(t.spans) + 1),
		Parent: t.cur.Load(),
		Name:   "harness." + name,
		Start:  start.Sub(t.start).Microseconds(),
		End:    end.Sub(t.start).Microseconds(),
	})
}

// tierCache wraps one cell-store tier. With a tracer it times every call;
// with arrivals set it also notes when each Put lands, which on a farm
// client's memory tier is when each streamed cell arrives.
type tierCache struct {
	harness.CellCache
	name     string
	dir      string // disk tier: its directory, to count the bytes read
	tr       *tracer
	arrivals bool

	mu    sync.Mutex
	times []time.Time
}

func (c *tierCache) Get(key string) (harness.Run, bool, error) {
	if c.tr == nil {
		return c.CellCache.Get(key)
	}
	start := time.Now()
	r, ok, err := c.CellCache.Get(key)
	c.tr.call(c.name+".get", start)
	if ok && c.dir != "" {
		if fi, err := os.Stat(filepath.Join(c.dir, key+".json")); err == nil {
			atomic.AddInt64(&c.tr.diskBytes, fi.Size())
		}
	}
	return r, ok, err
}

func (c *tierCache) Put(key string, r harness.Run) error {
	start := time.Now()
	err := c.CellCache.Put(key, r)
	if c.arrivals {
		c.mu.Lock()
		c.times = append(c.times, start)
		c.mu.Unlock()
	}
	if c.tr != nil {
		c.tr.call(c.name+".put", start)
	}
	return err
}

// firstArrival returns the ms from start to the first Put.
func (c *tierCache) firstArrival(start time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.times) == 0 {
		return math.NaN()
	}
	return float64(c.times[0].Sub(start)) / 1e6
}

// arrivals records the gaps between the cells a tier received.
func (t *tracer) arrivals(c *tierCache) {
	if t == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 1; i < len(c.times); i++ {
		t.gapMs = append(t.gapMs, float64(c.times[i].Sub(c.times[i-1]))/1e6)
	}
}

// countingTransport counts the farm client's requests per endpoint and the
// body bytes each way, and times the experiment streams of cold sessions.
type countingTransport struct {
	base http.RoundTripper
	tr   *tracer
	cold bool
}

// endpoint classifies a farm request by method and path.
func endpoint(r *http.Request) string {
	switch {
	case r.URL.Path == farm.ExperimentsPath:
		return "experiments"
	case r.URL.Path == farm.CellsPath:
		return "compute"
	case strings.HasPrefix(r.URL.Path, farm.CellsPath+"/") && r.Method == http.MethodGet:
		return "get_cell"
	case strings.HasPrefix(r.URL.Path, farm.CellsPath+"/") && r.Method == http.MethodPut:
		return "put_cell"
	}
	return "other"
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ep := endpoint(req)
	start := time.Now()
	sp := c.tr.begin("farm."+ep, c.tr.current())
	c.tr.mu.Lock()
	c.tr.requests[ep]++
	c.tr.bytesOut += max(req.ContentLength, 0)
	c.tr.mu.Unlock()
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		c.tr.end(sp)
		return nil, err
	}
	resp.Body = &countedBody{ReadCloser: resp.Body, tr: c.tr, start: start, span: sp, timed: c.cold && ep == "experiments"}
	return resp, nil
}

// countedBody counts a response body's bytes and closes its round trip's
// span when the body is closed.
type countedBody struct {
	io.ReadCloser
	tr     *tracer
	start  time.Time
	span   int64
	timed  bool // a cold experiment stream: record its duration
	closed sync.Once
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	atomic.AddInt64(&b.tr.bytesIn, int64(n))
	return n, err
}

func (b *countedBody) Close() error {
	b.closed.Do(func() {
		b.tr.end(b.span)
		if b.timed {
			b.tr.mu.Lock()
			b.tr.experimentMs = append(b.tr.experimentMs, msSince(b.start))
			b.tr.mu.Unlock()
		}
	})
	return b.ReadCloser.Close()
}

// specJobs enumerates a spec's cells over the given schemes.
func specJobs(spec sb.MatrixSpec, schemes []sb.Scheme) []sb.CellJob {
	var jobs []sb.CellJob
	for _, cfg := range spec.Configs {
		for _, kind := range schemes {
			for _, prof := range spec.Benches {
				jobs = append(jobs, sb.CellJob{Config: cfg, Scheme: kind, Bench: prof})
			}
		}
	}
	return jobs
}

// pass records the harness measurements of one traced pass, outside its
// timing: the session's hit accounting, the cost of deriving every cell
// key, and the cost of rendering every experiment again from the
// session's matrices, which must reproduce the pass's text.
func (t *tracer) pass(ctx context.Context, ev evaluation, specs []sb.MatrixSpec, opts sb.Options) error {
	if t == nil {
		return nil
	}
	t.hits += int64(ev.stats.Hits)
	t.cells += int64(ev.stats.Cells)
	avail := make(map[string]*harness.Matrix, len(specs))
	for _, spec := range specs {
		m, err := ev.sess.Matrix(ctx, spec)
		if err != nil {
			return err
		}
		avail[spec.Name] = m
		for _, job := range specJobs(spec, ev.sess.Schemes()) {
			start := time.Now()
			sb.CellKey(job, opts)
			t.keyUs = append(t.keyUs, float64(time.Since(start))/1e3)
		}
	}
	sp := t.begin("harness.render", 0)
	start := time.Now()
	for id, want := range ev.texts {
		got, err := harness.RenderExperiment(id, avail)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("experiment %s renders differently from its matrices than through the session", id)
		}
	}
	t.renderMs = append(t.renderMs, msSince(start))
	t.end(sp)
	return nil
}

// farmCounters adds one client session's farm counter movement.
func (t *tracer) farmCounters(d farmDelta, clientSimulated int) {
	if t == nil {
		return
	}
	t.farm.coordSimulated += d.coordSimulated
	t.farm.forwarded += d.forwarded
	t.farm.coalesced += d.coalesced
	t.farm.workerErrors += d.workerErrors
	t.farm.workerComputes += d.workerComputes
	t.clientSim += int64(clientSimulated)
}

// coreTrace accumulates the re-simulated cells' host cost and simulated
// counts.
type coreTrace struct {
	runNs          int64
	newUs, buildMs []float64
	hostNs         map[string]int64  // per scheme and per configuration name
	simCycles      map[string]uint64 // per scheme and per configuration name
	allocs, cycles uint64

	stages [core.StageSquash + 1]uint64
	stats  core.Stats // summed

	l1dHits, l1dAccesses, l2Hits, l2Accesses uint64
	mshrRejects, demandToDRAM, prefetchFills uint64
}

// stageCounter is a Recorder that counts stage events.
type stageCounter [core.StageSquash + 1]uint64

func (s *stageCounter) OnStage(ev core.StageEvent) { s[ev.Stage]++ }

// resimCells is the fixed cell sample the traced run re-simulates: every
// configuration of the evaluation × every scheme, one benchmark each,
// rotating through the suite.
func resimCells() []sb.CellJob {
	var jobs []sb.CellJob
	i := 0
	for _, spec := range evalSpecs {
		for _, cfg := range spec.Configs {
			for _, kind := range sb.Schemes() {
				jobs = append(jobs, sb.CellJob{Config: cfg, Scheme: kind, Bench: spec.Benches[i%len(spec.Benches)]})
				i++
			}
		}
	}
	return jobs
}

// simulate runs c through the harness's warmup and measurement windows and
// assembles the Run harness.RunOne reports for the same cell.
func simulate(c *core.Core, job sb.CellJob, opts sb.Options) (sb.Run, error) {
	warm, err := c.Run(core.RunLimits{MaxCycles: opts.WarmupCycles})
	if err != nil {
		return sb.Run{}, err
	}
	res, err := c.Run(core.RunLimits{MaxCycles: opts.WarmupCycles + opts.MeasureCycles})
	if err != nil {
		return sb.Run{}, err
	}
	if res.Halted {
		return sb.Run{}, fmt.Errorf("proxy halted inside the measurement window (cycle %d)", res.Cycles)
	}
	cycles, insts := res.Cycles-warm.Cycles, res.Insts-warm.Insts
	return sb.Run{
		Bench:       job.Bench.Name,
		Config:      job.Config.Name,
		Scheme:      job.Scheme,
		Cycles:      cycles,
		Insts:       insts,
		IPC:         float64(insts) / float64(cycles),
		Stats:       res.Stats,
		TotalCycles: res.Cycles,
	}, nil
}

// resimulate re-simulates the cell sample at the workload's run bounds
// (traced runs only). Each cell is an operation: it fails unless both the
// plain and the recorded simulation equal harness.RunOne's Run.
func (b *bench) resimulate(opts sb.Options) error {
	t := b.tr
	if t == nil {
		return nil
	}
	t.core.hostNs = make(map[string]int64)
	t.core.simCycles = make(map[string]uint64)
	for _, job := range resimCells() {
		sp := t.begin("core.cell", 0)
		problems := t.resimCell(job, opts, sp)
		t.end(sp)
		b.verify(fmt.Sprintf("re-simulated cell %s/%s/%s", job.Config.Name, job.Scheme, job.Bench.Name), problems)
	}
	return nil
}

func (t *tracer) resimCell(job sb.CellJob, opts sb.Options, parent int64) []string {
	c := &t.core
	scale := max(opts.Scale, 1)

	sp := t.begin("workloads.build", parent)
	start := time.Now()
	prog := job.Bench.Build(scale)
	c.buildMs = append(c.buildMs, msSince(start))
	t.end(sp)

	sp = t.begin("core.new", parent)
	start = time.Now()
	cpu, err := core.New(job.Config, job.Scheme, prog)
	c.newUs = append(c.newUs, float64(time.Since(start))/1e3)
	t.end(sp)
	if err != nil {
		return []string{err.Error()}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp = t.begin("core.run", parent)
	start = time.Now()
	run, err := simulate(cpu, job, opts)
	host := time.Since(start)
	t.end(sp)
	runtime.ReadMemStats(&after)
	if err != nil {
		return []string{err.Error()}
	}
	c.runNs += host.Nanoseconds()
	c.allocs += after.Mallocs - before.Mallocs
	c.cycles += run.TotalCycles
	for _, k := range []string{job.Scheme.String(), job.Config.Name} {
		c.hostNs[k] += host.Nanoseconds()
		c.simCycles[k] += run.TotalCycles
	}
	addStats(&c.stats, run.Stats)
	h := cpu.Hierarchy()
	c.l1dHits += h.L1D().Hits
	c.l1dAccesses += h.L1D().Accesses
	c.l2Hits += h.L2().Hits
	c.l2Accesses += h.L2().Accesses
	c.mshrRejects += h.MSHRRejects
	c.demandToDRAM += h.DemandToDRAM
	c.prefetchFills += h.PrefetchFills

	var counts stageCounter
	recRun, err := harness.RunOneRecorded(job.Config, job.Scheme, job.Bench, opts, &counts)
	if err != nil {
		return []string{err.Error()}
	}
	for i, n := range counts {
		c.stages[i] += n
	}
	want, err := harness.RunOne(job.Config, job.Scheme, job.Bench, opts)
	if err != nil {
		return []string{err.Error()}
	}
	var problems []string
	need(&problems, reflect.DeepEqual(run, want), "re-simulation differs from harness.RunOne")
	need(&problems, reflect.DeepEqual(recRun, want), "recorded re-simulation differs from harness.RunOne")
	return problems
}

// addStats sums the counters the per-layer report reads.
func addStats(dst *core.Stats, s core.Stats) {
	dst.IssuedUops += s.IssuedUops
	dst.SquashedUops += s.SquashedUops
	dst.TaintBlockedSelects += s.TaintBlockedSelects
	dst.TaintNopSlots += s.TaintNopSlots
	dst.DelayedBroadcasts += s.DelayedBroadcasts
	dst.DoMDelayedLoads += s.DoMDelayedLoads
	dst.Mispredicts += s.Mispredicts
	dst.BranchesResolved += s.BranchesResolved
	dst.BTBMissForcedNT += s.BTBMissForcedNT
}

// p50 is the median, or 0 for a layer the workload did not exercise.
func p50(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// perNs returns host ns per simulated cycle of one scheme or configuration.
func (c *coreTrace) perNs(name string) float64 {
	if c.simCycles[name] == 0 {
		return 0
	}
	return float64(c.hostNs[name]) / float64(c.simCycles[name])
}

// ratios returns the traced run's shares, each with its base.
func (t *tracer) ratios() map[string]ratio {
	c := &t.core
	return map[string]ratio{
		"mem.l1d_hit_ratio":       {int64(c.l1dHits), int64(c.l1dAccesses)},
		"mem.l2_hit_ratio":        {int64(c.l2Hits), int64(c.l2Accesses)},
		"branch.mispredict_ratio": {int64(c.stats.Mispredicts), int64(c.stats.BranchesResolved)},
		"harness.hit_ratio":       {t.hits, t.cells},
	}
}

// metrics computes every per-layer metric of the traced run.
func (t *tracer) metrics(b *bench) map[string]metric {
	c := &t.core
	v := map[string]float64{
		"core.run_s":                   float64(c.runNs) / 1e9,
		"core.new_us":                  p50(c.newUs),
		"core.allocs_per_sim_cycle":    float64(c.allocs) / float64(max(c.cycles, 1)),
		"core.issued_uops":             float64(c.stats.IssuedUops),
		"core.squashed_uops":           float64(c.stats.SquashedUops),
		"core.taint_blocked_selects":   float64(c.stats.TaintBlockedSelects),
		"core.taint_nop_slots":         float64(c.stats.TaintNopSlots),
		"core.delayed_broadcasts":      float64(c.stats.DelayedBroadcasts),
		"core.dom_delayed_loads":       float64(c.stats.DoMDelayedLoads),
		"workloads.build_ms":           p50(c.buildMs),
		"mem.l1d_accesses":             float64(c.l1dAccesses),
		"mem.l2_accesses":              float64(c.l2Accesses),
		"mem.mshr_rejects":             float64(c.mshrRejects),
		"mem.demand_to_dram":           float64(c.demandToDRAM),
		"mem.prefetch_fills":           float64(c.prefetchFills),
		"branch.resolved":              float64(c.stats.BranchesResolved),
		"branch.btb_forced_nt":         float64(c.stats.BTBMissForcedNT),
		"harness.key_us_p50":           p50(t.keyUs),
		"harness.mem_get_us_p50":       p50(t.calls["mem.get"]),
		"harness.disk_get_us_p50":      p50(t.calls["disk.get"]),
		"harness.disk_bytes_read":      float64(t.diskBytes),
		"harness.render_ms":            p50(t.renderMs),
		"harness.disk_put_us_p50":      p50(t.calls["disk.put"]),
		"harness.cells":                float64(t.cells),
		"farm.requests.experiments":    float64(t.requests["experiments"]),
		"farm.requests.compute":        float64(t.requests["compute"]),
		"farm.requests.get_cell":       float64(t.requests["get_cell"]),
		"farm.requests.put_cell":       float64(t.requests["put_cell"]),
		"farm.requests.worker_compute": float64(t.farm.workerComputes),
		"farm.bytes_in":                float64(t.bytesIn),
		"farm.bytes_out":               float64(t.bytesOut),
		"farm.forwarded":               float64(t.farm.forwarded),
		"farm.coalesced":               float64(t.farm.coalesced),
		"farm.experiment_ms_p50":       p50(t.experimentMs),
		"farm.worker_errors":           float64(t.farm.workerErrors),
		"farm.coord_simulated":         float64(t.farm.coordSimulated),
		"farm.client_simulated":        float64(t.clientSim),
	}
	for _, k := range sb.SchemeNames() {
		v["core.ns_per_sim_cycle."+k] = c.perNs(k)
	}
	for _, spec := range evalSpecs {
		for _, cfg := range spec.Configs {
			v["core.ns_per_sim_cycle."+cfg.Name] = c.perNs(cfg.Name)
		}
	}
	for i, n := range c.stages {
		v["core.stage_events."+core.Stage(i).String()] = float64(n)
	}
	for name, r := range t.ratios() {
		v[name] = r.value()
	}
	v["farm.cell_gap_ms_p90"] = 0
	if _, _, ok := tail(t.gapMs); ok {
		v["farm.cell_gap_ms_p90"] = quantile(t.gapMs, 0.9)
	}
	v["trace.overhead_pct"] = 0
	if len(b.tracedMs) > 0 && len(b.untracedMs) > 0 {
		v["trace.overhead_pct"] = (median(b.tracedMs)/median(b.untracedMs) - 1) * 100
	}

	out := make(map[string]metric, len(v))
	for _, d := range perLayerMetrics {
		if x, ok := v[d.Name]; ok {
			out[d.Name] = metric{x, d.Unit}
		}
	}
	return out
}

// print prints the traced run's ratios with their bases and, per span
// name, the count, the total time and the self time: each span's duration
// minus the part its children cover.
func (t *tracer) print(w io.Writer) {
	for name, r := range t.ratios() {
		fmt.Fprintf(w, "ratio %s: %s\n", name, r)
	}
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type agg struct {
		n           int
		total, self int64
	}
	by := make(map[string]*agg)
	var names []string
	for _, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += s.End - s.Start
		a.self += s.End - s.Start - covered(s, children[s.ID])
	}
	sort.Strings(names)
	fmt.Fprintf(w, "spans: %d kept, %d beyond the cap of %d not kept\n", len(t.spans), t.dropped, maxSpans)
	for _, name := range names {
		a := by[name]
		fmt.Fprintf(w, "span %s: n=%d total_ms=%.3f self_ms=%.3f\n", name, a.n, float64(a.total)/1e3, float64(a.self)/1e3)
	}
}

// covered returns how much of s the union of kids' intervals covers.
func covered(s span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	lo, hi := int64(-1), int64(-1)
	for _, k := range kids {
		start, end := max(k.Start, s.Start), min(k.End, s.End)
		if end <= start {
			continue
		}
		if start > hi {
			total += hi - lo
			lo, hi = start, end
		} else if end > hi {
			hi = end
		}
	}
	return total + hi - lo
}

// writeSpans writes every span as one JSON line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package harness

import (
	"context"
	"encoding/json"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

func wireTestJob(t testing.TB) (CellJob, Options) {
	t.Helper()
	prof, err := workloads.ByName("505.mcf")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.WarmupCycles = 500
	opts.MeasureCycles = 1500
	return CellJob{Config: core.MegaConfig(), Scheme: core.KindSTTIssue, Bench: prof}, opts
}

// resolverCache wraps a CellCache and records Resolve traffic — a
// stand-in for the farm HTTPCache in compute mode.
type resolverCache struct {
	inner CellCache
	serve func(jobs []CellJob, opts Options, deliver func(string, Run)) (int, error)

	mu      sync.Mutex
	batches [][]CellJob
}

func (c *resolverCache) Get(key string) (Run, bool, error) { return c.inner.Get(key) }
func (c *resolverCache) Put(key string, r Run) error       { return c.inner.Put(key, r) }
func (c *resolverCache) Resolve(_ context.Context, jobs []CellJob, _ []string, opts Options, deliver func(string, Run)) (int, error) {
	c.mu.Lock()
	c.batches = append(c.batches, jobs)
	c.mu.Unlock()
	return c.serve(jobs, opts, deliver)
}

// TestEngineResolvesMissAsExperimentOfOne: on a cache miss the engine must
// ask a Resolver cache for the job as a batch of one, count a delivered
// cell as a cache hit, and degrade a resolver error — or a delivery under
// a foreign key — to local simulation.
func TestEngineResolvesMissAsExperimentOfOne(t *testing.T) {
	job, opts := wireTestJob(t)
	ctx := context.Background()
	ref, err := RunOne(job.Config, job.Scheme, job.Bench, opts)
	if err != nil {
		t.Fatal(err)
	}
	key := NewEngine(nil, "").Key(job, opts)

	// First: a resolver that serves the cell (as a remote farm would).
	served := &resolverCache{
		inner: NewMemoryCache(0),
		serve: func(_ []CellJob, _ Options, deliver func(string, Run)) (int, error) {
			deliver(key, ref)
			return 1, nil
		},
	}
	e := NewEngine(served, "")
	runs, err := e.RunCells(ctx, []CellJob{job}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(served.batches) != 1 {
		t.Fatalf("resolver asked %d times, want once", len(served.batches))
	}
	if b := served.batches[0]; len(b) != 1 || b[0] != job {
		t.Fatalf("miss not resolved as a batch of one: %+v", b)
	}
	if st := e.Stats(); st.Hits != 1 || st.Simulated != 0 || runs[0] != ref {
		t.Fatalf("resolved cell not counted as a hit: %+v", st)
	}

	// Then: a failing resolver, and one that delivers under a foreign
	// key, must both degrade to local simulation with identical results.
	for name, serve := range map[string]func([]CellJob, Options, func(string, Run)) (int, error){
		"error": func([]CellJob, Options, func(string, Run)) (int, error) {
			return 0, errTestUnwritable
		},
		"foreign key": func(_ []CellJob, _ Options, deliver func(string, Run)) (int, error) {
			deliver("not-"+key, ref)
			return 1, nil
		},
	} {
		e := NewEngine(&resolverCache{inner: NewMemoryCache(0), serve: serve}, "")
		runs, err := e.RunCells(ctx, []CellJob{job}, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st := e.Stats(); st.Simulated != 1 || st.Hits != 0 {
			t.Fatalf("%s: resolver failure did not simulate locally: %+v", name, st)
		}
		if runs[0] != ref {
			t.Fatalf("%s: local re-simulation diverged: %+v vs %+v", name, runs[0], ref)
		}
	}
}

// TestEngineResolvesBatchInOneCall: the engine hands every claimed miss
// of a request to the Resolver in one call, emits each delivered cell as
// it arrives, coalesces a concurrent request onto the batch instead of
// asking again, and resolves only the cells the batch never delivered per
// cell (a batch of one each, then local simulation).
func TestEngineResolvesBatchInOneCall(t *testing.T) {
	base, opts := wireTestJob(t)
	var jobs []CellJob
	for _, k := range []core.SchemeKind{core.KindBaseline, core.KindSTTRename, core.KindSTTIssue, core.KindNDA} {
		j := base
		j.Scheme = k
		jobs = append(jobs, j)
	}
	ctx := context.Background()
	started, release := make(chan struct{}), make(chan struct{})
	rc := &resolverCache{inner: NewMemoryCache(0)}
	rc.serve = func(batch []CellJob, opts Options, deliver func(string, Run)) (int, error) {
		if len(batch) == 1 {
			return 0, errTestUnwritable // the per-cell fallback: simulate locally
		}
		close(started)
		<-release
		// Deliver the last and the second cell, in that order, then die.
		for _, i := range []int{3, 1} {
			deliver(CellKey(batch[i], opts), fakeRun(batch[i].Bench.Name, batch[i].Scheme, 4000))
		}
		return 2, errTestUnwritable
	}
	e := NewEngine(NewTieredCache(NewMemoryCache(0), rc), "")
	var order []core.SchemeKind
	cancel := e.Subscribe(func(r CellResult) { order = append(order, r.Job.Scheme) })
	defer cancel()

	type result struct {
		runs []Run
		err  error
	}
	first := make(chan result, 1)
	go func() {
		runs, err := e.RunCells(ctx, jobs, opts)
		first <- result{runs, err}
	}()
	<-started
	second := make(chan result, 1)
	go func() {
		runs, err := e.RunCells(ctx, jobs, opts)
		second <- result{runs, err}
	}()
	// The second request finds every key in flight: it must wait on the
	// first, or read what the first stored, and never reach the resolver.
	close(release)
	r1, r2 := <-first, <-second
	if r1.err != nil || r2.err != nil {
		t.Fatalf("RunCells: %v / %v", r1.err, r2.err)
	}
	if got := len(rc.batches); got != 1+2 {
		t.Fatalf("resolver asked %d times, want the batch once plus one per undelivered cell (3)", got)
	}
	if len(rc.batches[0]) != len(jobs) {
		t.Fatalf("batch carried %d of %d claimed cells", len(rc.batches[0]), len(jobs))
	}
	var seen []core.SchemeKind
	for _, k := range order {
		if !slices.Contains(seen, k) {
			seen = append(seen, k)
		}
	}
	if seen[0] != core.KindNDA || seen[1] != core.KindSTTRename {
		t.Fatalf("delivered cells not emitted in arrival order: %v", order)
	}
	for i, j := range jobs {
		want := fakeRun(j.Bench.Name, j.Scheme, 4000)
		if i == 0 || i == 2 {
			var err error
			if want, err = RunOne(j.Config, j.Scheme, j.Bench, opts); err != nil {
				t.Fatal(err)
			}
		}
		if r1.runs[i] != want || r2.runs[i] != want {
			t.Fatalf("cell %d: got %+v / %+v, want %+v", i, r1.runs[i], r2.runs[i], want)
		}
	}
	if st := e.Stats(); st.Cells != 8 || st.Simulated != 2 || st.Hits != 6 {
		t.Fatalf("accounting: %+v, want 8 cells = 2 simulated + 6 delivered, coalesced or cached", st)
	}
}

// TestEngineBatchesOnlyThroughAResolver: a stack that cannot resolve —
// plain layers, or tiers without a Resolver layer — gives the engine no
// compute path, so RunCells never delays the first simulation to claim
// and batch every key; a stack with a Resolver layer does.
func TestEngineBatchesOnlyThroughAResolver(t *testing.T) {
	remote := &resolverCache{inner: NewMemoryCache(0)}
	for _, tc := range []struct {
		name  string
		cache CellCache
		want  bool
	}{
		{"memory", NewMemoryCache(0), false},
		{"tiers without a resolver", NewTieredCache(NewMemoryCache(0), NewMemoryCache(0)), false},
		{"resolver", remote, true},
		{"tiers over a resolver", NewTieredCache(NewMemoryCache(0), remote), true},
	} {
		if got := NewEngine(tc.cache, "").resolver != nil; got != tc.want {
			t.Errorf("%s: engine has a compute path = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestTieredCacheResolveBackfill: a tiered stack must answer the hits of
// its faster layers itself, forward only the remaining jobs to its
// resolver layer, and backfill every faster layer with each delivered
// cell — the path a remote-computed cell takes into the local memory
// layer — and a stack without a resolver must be a clean no-op.
func TestTieredCacheResolveBackfill(t *testing.T) {
	job, opts := wireTestJob(t)
	held := job
	held.Scheme = core.KindNDA
	ref, heldRun := fakeRun(job.Bench.Name, job.Scheme, 4000), fakeRun(held.Bench.Name, held.Scheme, 5000)
	key, heldKey := CellKey(job, opts), CellKey(held, opts)
	mem := NewMemoryCache(0)
	if err := mem.Put(heldKey, heldRun); err != nil {
		t.Fatal(err)
	}
	remote := &resolverCache{
		inner: NewMemoryCache(0),
		serve: func(_ []CellJob, _ Options, deliver func(string, Run)) (int, error) {
			deliver(key, ref)
			return 1, nil
		},
	}
	tiered := NewTieredCache(mem, remote)

	got := map[string]Run{}
	n, err := tiered.Resolve(context.Background(), []CellJob{job, held}, []string{key, heldKey}, opts, func(k string, r Run) {
		got[k] = r
	})
	if err != nil || n != 2 || len(got) != 2 || got[key] != ref || got[heldKey] != heldRun {
		t.Fatalf("Resolve: n=%d delivered=%v err=%v", n, got, err)
	}
	if len(remote.batches) != 1 || len(remote.batches[0]) != 1 || remote.batches[0][0] != job {
		t.Fatalf("resolver asked for %v, want only the job the memory layer lacks", remote.batches)
	}
	if r, ok, _ := mem.Get(key); !ok || r != ref {
		t.Fatal("delivered cell not backfilled into the faster layer")
	}
	if r, ok, _ := tiered.Get(key); !ok || r != ref {
		t.Fatal("backfilled cell not served by Get")
	}
	if _, err := tiered.Resolve(context.Background(), []CellJob{job, held}, []string{key, heldKey}, opts, func(string, Run) {}); err != nil || len(remote.batches) != 1 {
		t.Fatalf("all-hit batch reached the resolver: batches=%d err=%v", len(remote.batches), err)
	}

	local := NewTieredCache(NewMemoryCache(0), NewMemoryCache(0))
	if n, err := local.Resolve(context.Background(), []CellJob{job}, []string{key}, opts, nil); n != 0 || err != nil {
		t.Fatalf("resolver-less stack: n=%d err=%v, want a clean no-op", n, err)
	}
}

// TestWireExperimentKeyIdentity: a whole experiment that crosses the wire
// must enumerate to exactly the per-cell key set the sender derives — the
// identity that lets streamed cells be validated against locally computed
// keys without ever sending keys in the request.
func TestWireExperimentKeyIdentity(t *testing.T) {
	_, opts := wireTestJob(t)
	spec := MatrixSpec{
		Name:    "wire-identity",
		Configs: []core.Config{core.SmallConfig(), core.MegaConfig()},
		Schemes: []core.SchemeKind{core.KindBaseline, core.KindSTTIssue, core.KindNDA},
	}
	for _, name := range []string{"505.mcf", "520.omnetpp"} {
		p, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		spec.Benches = append(spec.Benches, p)
	}
	want := map[string]bool{}
	for _, j := range enumerateJobs(spec.Configs, spec.Schemes, spec.Benches) {
		want[CellKey(j, opts)] = true
	}

	data, err := json.Marshal(WireExperiment(spec, opts))
	if err != nil {
		t.Fatal(err)
	}
	var w ExperimentJobWire
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatal(err)
	}
	jobs, wopts, err := w.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(want) {
		t.Fatalf("wire round trip enumerated %d cells, want %d", len(jobs), len(want))
	}
	for _, j := range jobs {
		if !want[CellKey(j, wopts)] {
			t.Fatalf("wire round trip invented cell key for %s/%s/%s", j.Config.Name, j.Scheme, j.Bench.Name)
		}
	}
}

// TestWireJobKeyIdentity: a single cell crosses the wire as an experiment
// of one and must resolve to the same job, run bounds and content-addressed
// key on the other side — the identity that lets a farm and its clients
// agree on a cell's key without ever exchanging it for the compute path.
func TestWireJobKeyIdentity(t *testing.T) {
	job, opts := wireTestJob(t)
	data, err := json.Marshal(WireJobs([]CellJob{job}, opts))
	if err != nil {
		t.Fatal(err)
	}
	var one ExperimentJobWire
	if err := json.Unmarshal(data, &one); err != nil {
		t.Fatal(err)
	}
	jobs, wopts, err := one.Resolve()
	if err != nil || len(jobs) != 1 {
		t.Fatalf("one-cell wire: jobs=%d err=%v", len(jobs), err)
	}
	if got, want := CellKey(jobs[0], wopts), CellKey(job, opts); got != want {
		t.Fatalf("one-cell round trip changed the cell key: %s -> %s", want, got)
	}
	if jobs[0].Scheme != job.Scheme || jobs[0].Bench.Name != job.Bench.Name {
		t.Fatalf("one-cell round trip changed the job: %+v", jobs[0])
	}
	if wopts.WarmupCycles != opts.WarmupCycles || wopts.MeasureCycles != opts.MeasureCycles {
		t.Fatalf("one-cell round trip changed the options: %+v", wopts)
	}
}

// TestWireExperimentValidation: corrupted or oversized experiment requests
// are rejected at Resolve, never enumerated or simulated.
func TestWireExperimentValidation(t *testing.T) {
	_, opts := wireTestJob(t)
	prof, err := workloads.ByName("505.mcf")
	if err != nil {
		t.Fatal(err)
	}
	good := WireExperiment(MatrixSpec{
		Name:    "validate",
		Configs: []core.Config{core.SmallConfig()},
		Schemes: []core.SchemeKind{core.KindBaseline},
		Benches: []workloads.Profile{prof},
	}, opts)

	cases := []struct {
		name   string
		mutate func(*ExperimentJobWire)
	}{
		{"empty configs", func(w *ExperimentJobWire) { w.Configs = nil }},
		{"empty schemes", func(w *ExperimentJobWire) { w.Schemes = nil }},
		{"empty benches", func(w *ExperimentJobWire) { w.Benches = nil }},
		{"unknown scheme", func(w *ExperimentJobWire) { w.Schemes = []string{"no-such-scheme"} }},
		{"invalid config", func(w *ExperimentJobWire) { w.Configs[0].Width = 99 }},
		{"empty profile", func(w *ExperimentJobWire) { w.Benches = []workloads.Profile{{}} }},
		{"zero window", func(w *ExperimentJobWire) { w.Measure = 0 }},
		{"oversized product", func(w *ExperimentJobWire) {
			w.Benches = make([]workloads.Profile, maxWireCells+1)
			for i := range w.Benches {
				w.Benches[i] = prof
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := good
			w.Configs = append([]core.Config(nil), good.Configs...)
			tc.mutate(&w)
			if _, _, err := w.Resolve(); err == nil {
				t.Fatalf("%s: Resolve accepted a bad wire experiment", tc.name)
			}
		})
	}
	if jobs, _, err := good.Resolve(); err != nil || len(jobs) != 1 {
		t.Fatalf("unmutated wire experiment rejected: jobs=%d err=%v", len(jobs), err)
	}
}

// TestWireJobValidation: a corrupted or incompatible one-cell wire job is
// rejected at Resolve, not crashed on inside the simulator.
func TestWireJobValidation(t *testing.T) {
	job, opts := wireTestJob(t)
	good := WireJobs([]CellJob{job}, opts)

	cases := []struct {
		name   string
		mutate func(*ExperimentJobWire)
	}{
		{"unknown scheme", func(w *ExperimentJobWire) { w.Schemes = []string{"no-such-scheme"} }},
		{"invalid config", func(w *ExperimentJobWire) { w.Configs[0].Width = 99 }},
		{"empty profile", func(w *ExperimentJobWire) { w.Benches = []workloads.Profile{{}} }},
		{"zero window", func(w *ExperimentJobWire) { w.Measure = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := good
			w.Configs = append([]core.Config(nil), good.Configs...)
			tc.mutate(&w)
			if _, _, err := w.Resolve(); err == nil {
				t.Fatalf("%s: Resolve accepted a bad wire job", tc.name)
			}
		})
	}
	if jobs, _, err := good.Resolve(); err != nil || len(jobs) != 1 {
		t.Fatalf("unmutated wire job rejected: jobs=%d err=%v", len(jobs), err)
	}
}

// FuzzExperimentJobWire: arbitrary JSON fed to Resolve never panics, a
// wire Resolve accepts re-marshals to exactly the same per-cell keys — the
// identity a farm's streamed-key validation rests on — and an accepted
// cell subset enumerates exactly the indexed cells of the whole product.
// The seeds pin the subset contract: a sender's subset resolves to the
// keys it derived, and out-of-range, unsorted and duplicate indices are
// rejected.
func FuzzExperimentJobWire(f *testing.F) {
	job, opts := wireTestJob(f)
	spec := MatrixSpec{
		Name:    "seed",
		Configs: []core.Config{core.SmallConfig(), core.MegaConfig()},
		Schemes: []core.SchemeKind{core.KindBaseline, core.KindNDA},
		Benches: []workloads.Profile{job.Bench},
	}
	all := enumerateJobs(spec.Configs, spec.Schemes, spec.Benches)
	subset := []CellJob{all[3], all[0], all[2], all[0]} // out of order, one repeat
	sub := WireJobs(subset, opts)
	if len(sub.Cells) != 3 {
		f.Fatalf("subset wire cells = %v, want 3 of the 4-cell product", sub.Cells)
	}
	jobs, wopts, err := sub.Resolve()
	if err != nil {
		f.Fatal(err)
	}
	var got, want []string
	for _, j := range jobs {
		got = append(got, CellKey(j, wopts))
	}
	for _, j := range subset[:3] {
		want = append(want, CellKey(j, opts))
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		f.Fatalf("subset wire resolves to keys %v, sender derived %v", got, want)
	}
	seed := func(w ExperimentJobWire) {
		data, err := json.Marshal(w)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	seed(WireJobs([]CellJob{job}, opts))
	seed(WireExperiment(spec, opts))
	seed(sub)
	for name, cells := range map[string][]int{
		"out of range": {0, 4},
		"negative":     {-1, 2},
		"unsorted":     {2, 0},
		"duplicate":    {1, 1},
	} {
		bad := sub
		bad.Cells = cells
		if _, _, err := bad.Resolve(); err == nil {
			f.Fatalf("%s cell subset %v accepted", name, cells)
		}
		seed(bad)
	}
	f.Add([]byte(`{"configs":[{}],"schemes":["baseline"],"benches":[{"name":"x"}],"measure":1}`))
	f.Add([]byte(`{not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var w ExperimentJobWire
		if json.Unmarshal(data, &w) != nil {
			return
		}
		jobs, wopts, err := w.Resolve()
		if err != nil {
			return
		}
		again, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("accepted wire does not marshal: %v", err)
		}
		var w2 ExperimentJobWire
		if err := json.Unmarshal(again, &w2); err != nil {
			t.Fatalf("re-marshaled wire does not parse: %v", err)
		}
		jobs2, wopts2, err := w2.Resolve()
		if err != nil {
			t.Fatalf("re-marshaled wire rejected: %v", err)
		}
		if len(jobs2) != len(jobs) {
			t.Fatalf("re-marshaled wire enumerates %d cells, want %d", len(jobs2), len(jobs))
		}
		for i := range jobs {
			if a, b := CellKey(jobs[i], wopts), CellKey(jobs2[i], wopts2); a != b {
				t.Fatalf("cell %d key changed across re-marshal: %s -> %s", i, a, b)
			}
		}
		if len(w.Cells) == 0 {
			return
		}
		whole := w
		whole.Cells = nil
		product, _, err := whole.Resolve()
		if err != nil {
			t.Fatalf("subset accepted but its whole product rejected: %v", err)
		}
		for k, i := range w.Cells {
			if CellKey(jobs[k], wopts) != CellKey(product[i], wopts) {
				t.Fatalf("subset position %d does not enumerate product cell %d", k, i)
			}
		}
	})
}

package harness

import (
	"context"
	"encoding/json"
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
	specs []MatrixSpec
	serve func(spec MatrixSpec, opts Options, deliver func(string, Run)) (int, error)
}

func (c *resolverCache) Get(key string) (Run, bool, error) { return c.inner.Get(key) }
func (c *resolverCache) Put(key string, r Run) error       { return c.inner.Put(key, r) }
func (c *resolverCache) Resolve(_ context.Context, spec MatrixSpec, opts Options, deliver func(string, Run)) (int, error) {
	c.specs = append(c.specs, spec)
	return c.serve(spec, opts, deliver)
}

// TestEngineResolvesMissAsExperimentOfOne: on a cache miss the engine must
// ask a Resolver cache for the job as a one-cell spec, count a delivered
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
		serve: func(_ MatrixSpec, _ Options, deliver func(string, Run)) (int, error) {
			deliver(key, ref)
			return 1, nil
		},
	}
	e := NewEngine(served, "")
	runs, err := e.RunCells(ctx, []CellJob{job}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(served.specs) != 1 {
		t.Fatalf("resolver asked %d times, want once", len(served.specs))
	}
	spec := served.specs[0]
	if len(spec.Configs) != 1 || len(spec.Schemes) != 1 || len(spec.Benches) != 1 ||
		spec.Schemes[0] != job.Scheme || spec.Benches[0].Name != job.Bench.Name {
		t.Fatalf("miss not resolved as an experiment of one: %+v", spec)
	}
	if st := e.Stats(); st.Hits != 1 || st.Simulated != 0 || runs[0] != ref {
		t.Fatalf("resolved cell not counted as a hit: %+v", st)
	}

	// Then: a failing resolver, and one that delivers under a foreign
	// key, must both degrade to local simulation with identical results.
	for name, serve := range map[string]func(MatrixSpec, Options, func(string, Run)) (int, error){
		"error": func(MatrixSpec, Options, func(string, Run)) (int, error) {
			return 0, errTestUnwritable
		},
		"foreign key": func(_ MatrixSpec, _ Options, deliver func(string, Run)) (int, error) {
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

// TestTieredCacheResolveBackfill: a tiered stack must forward a spec to
// its resolver layer and backfill every faster layer with each delivered
// cell — the path a remote-computed cell takes into the local memory
// layer — and a stack without a resolver must be a clean no-op.
func TestTieredCacheResolveBackfill(t *testing.T) {
	job, opts := wireTestJob(t)
	ref := fakeRun(job.Bench.Name, job.Scheme, 4000)
	mem := NewMemoryCache(0)
	remote := &resolverCache{
		inner: NewMemoryCache(0),
		serve: func(_ MatrixSpec, _ Options, deliver func(string, Run)) (int, error) {
			deliver("k1", ref)
			return 1, nil
		},
	}
	tiered := NewTieredCache(mem, remote)

	var got []string
	n, err := tiered.Resolve(context.Background(), job.Spec(), opts, func(key string, r Run) {
		if r != ref {
			t.Errorf("delivered wrong run: %+v", r)
		}
		got = append(got, key)
	})
	if err != nil || n != 1 || len(got) != 1 || got[0] != "k1" {
		t.Fatalf("Resolve: n=%d delivered=%v err=%v", n, got, err)
	}
	if r, ok, _ := mem.Get("k1"); !ok || r != ref {
		t.Fatal("delivered cell not backfilled into the faster layer")
	}
	if r, ok, _ := tiered.Get("k1"); !ok || r != ref {
		t.Fatal("backfilled cell not served by Get")
	}

	local := NewTieredCache(NewMemoryCache(0), NewMemoryCache(0))
	if n, err := local.Resolve(context.Background(), job.Spec(), opts, nil); n != 0 || err != nil {
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
	data, err := json.Marshal(WireExperiment(job.Spec(), opts))
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
	good := WireExperiment(job.Spec(), opts)

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

// FuzzExperimentJobWire: arbitrary JSON fed to Resolve never panics, and
// a wire Resolve accepts re-marshals to exactly the same per-cell keys —
// the identity a farm's streamed-key validation rests on.
func FuzzExperimentJobWire(f *testing.F) {
	job, opts := wireTestJob(f)
	for _, spec := range []MatrixSpec{
		job.Spec(),
		{
			Name:    "seed",
			Configs: []core.Config{core.SmallConfig(), core.MegaConfig()},
			Schemes: []core.SchemeKind{core.KindBaseline, core.KindNDA},
			Benches: []workloads.Profile{job.Bench},
		},
	} {
		data, err := json.Marshal(WireExperiment(spec, opts))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
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
	})
}

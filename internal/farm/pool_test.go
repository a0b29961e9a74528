package farm

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
)

// TestWorkerFanOut: a coordinator with two workers must shard compute
// across both by key hash and never simulate locally itself, while the
// fleet as a whole still simulates each unique cell exactly once —
// including under concurrent duplicate requests.
func TestWorkerFanOut(t *testing.T) {
	w1, ts1 := newTestFarm(t, ServerConfig{})
	w2, ts2 := newTestFarm(t, ServerConfig{})
	coord, tsc := newTestFarm(t, ServerConfig{Workers: []string{ts1.URL, ts2.URL}})

	opts := testOpts()
	benches := []string{"505.mcf", "502.gcc", "520.omnetpp", "541.leela"}
	kinds := []core.SchemeKind{
		core.KindBaseline, core.KindSTTRename, core.KindSTTIssue, core.KindNDA,
	}
	var jobs []harness.CellJob
	var keys []string
	var refs []harness.Run
	for _, b := range benches {
		for _, k := range kinds {
			j := testJob(t, b, k)
			jobs = append(jobs, j)
			keys = append(keys, keyOf(j, opts))
			refs = append(refs, refRun(t, j, opts))
		}
	}
	unique := len(jobs) // 16

	const dup = 4 // concurrent duplicate clients per cell
	var wg sync.WaitGroup
	errs := make(chan error, unique*dup)
	for d := 0; d < dup; d++ {
		for i := range jobs {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := fastClient(tsc.URL, true)
				run, ok, err := computeCell(c, jobs[i], opts)
				if err != nil || !ok {
					errs <- fmt.Errorf("cell %s: ok=%v err=%v", keys[i], ok, err)
					return
				}
				if !reflect.DeepEqual(run, refs[i]) {
					errs <- fmt.Errorf("cell %s: worker result diverges from local", keys[i])
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	cs, s1, s2 := coord.Stats(), w1.Stats(), w2.Stats()
	if cs.EngineSimulated != 0 {
		t.Fatalf("coordinator simulated locally despite healthy workers: %+v", cs)
	}
	if cs.Forwarded != int64(unique) {
		t.Fatalf("forwarded %d compute requests, want %d (one per unique cell): %+v",
			cs.Forwarded, unique, cs)
	}
	if s1.EngineSimulated+s2.EngineSimulated != int64(unique) {
		t.Fatalf("fleet simulated %d+%d cells, want %d total",
			s1.EngineSimulated, s2.EngineSimulated, unique)
	}
	// FNV sharding over 16 distinct keys must actually use both workers.
	if s1.EngineSimulated == 0 || s2.EngineSimulated == 0 {
		t.Fatalf("fan-out degenerate: worker split %d/%d",
			s1.EngineSimulated, s2.EngineSimulated)
	}
	if cs.WorkerErrors != 0 {
		t.Fatalf("unexpected worker errors: %+v", cs)
	}
}

// TestWorkerFailureFallsBackLocal: a dead worker must cost a warning and
// a local simulation on the coordinator — never a failed request.
func TestWorkerFailureFallsBackLocal(t *testing.T) {
	coord, tsc := newTestFarm(t, ServerConfig{
		Workers: []string{"http://127.0.0.1:1"}, // reserved port: dial always refused
	})
	opts := testOpts()
	job := testJob(t, "505.mcf", core.KindSTTIssue)
	ref := refRun(t, job, opts)

	c := fastClient(tsc.URL, true)
	run, ok, err := computeCell(c, job, opts)
	if err != nil || !ok {
		t.Fatalf("compute with dead worker: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(run, ref) {
		t.Fatalf("fallback run diverges:\ngot  %+v\nwant %+v", run, ref)
	}
	st := coord.Stats()
	if st.WorkerErrors != 1 || st.Forwarded != 0 {
		t.Fatalf("worker failure not accounted: %+v", st)
	}
	if st.EngineSimulated != 1 {
		t.Fatalf("coordinator did not fall back to local simulation: %+v", st)
	}
}

// TestWorkerRejectionIsPermanent: a worker's 4xx indicts the job, not the
// worker — the coordinator records one worker error, keeps the worker
// healthy, never re-shards the cell onto the other worker, and simulates
// it locally exactly once.
func TestWorkerRejectionIsPermanent(t *testing.T) {
	var rejects, spareHits atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == ExperimentsPath:
			rejects.Add(1)
			httpError(w, http.StatusBadRequest, "farm: rejected by the test worker")
		case r.URL.Path == StatsPath:
			w.WriteHeader(http.StatusOK)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(stub.Close)
	spare := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		spareHits.Add(1)
		httpError(w, http.StatusInternalServerError, "the spare worker must never be asked")
	}))
	t.Cleanup(spare.Close)
	workers := []string{stub.URL, spare.URL}

	// A cell the stub owns under rendezvous hashing, so the coordinator's
	// first forward goes to it.
	opts := testOpts()
	owner := newWorkerPool(workers, 0, -1, nil)
	defer owner.Close()
	var job harness.CellJob
	for _, b := range []string{"505.mcf", "502.gcc", "520.omnetpp", "541.leela"} {
		for _, k := range []core.SchemeKind{core.KindBaseline, core.KindSTTRename, core.KindNDA} {
			if j := testJob(t, b, k); job.Bench.Name == "" && owner.pick(harness.CellKey(j, opts)) == stub.URL {
				job = j
			}
		}
	}
	if job.Bench.Name == "" {
		t.Fatal("no test cell rendezvous-hashes onto the stub worker")
	}

	// Probing off: only the forward itself may change the stub's health.
	coord, tsc := newTestFarm(t, ServerConfig{Workers: workers, ProbeInterval: -1})
	run, ok, err := computeCell(fastClient(tsc.URL, true), job, opts)
	if err != nil || !ok {
		t.Fatalf("compute with a rejecting worker: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(run, refRun(t, job, opts)) {
		t.Fatal("local fallback run diverges")
	}
	st := coord.Stats()
	if st.WorkerErrors != 1 || st.Forwarded != 0 || st.EngineSimulated != 1 {
		t.Fatalf("rejection accounting: %+v", st)
	}
	for _, w := range st.Workers {
		if !w.Healthy {
			t.Fatalf("worker %s marked dead by a job rejection: %+v", w.URL, st.Workers)
		}
	}
	if rejects.Load() != 1 || spareHits.Load() != 0 {
		t.Fatalf("forwards: stub %d (want 1), spare %d (want 0)", rejects.Load(), spareHits.Load())
	}
}

// TestPoolSharding: rendezvous pick is deterministic and uses every
// worker across enough keys — the property the fan-out test observes end
// to end.
func TestPoolSharding(t *testing.T) {
	p := newWorkerPool([]string{"http://a/", "http://b", "http://c"}, 0, -1, nil)
	defer p.Close()
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("%016x", i*2654435761)
		u := p.pick(key)
		if u != p.pick(key) {
			t.Fatalf("pick not deterministic for %s", key)
		}
		seen[u] = true
	}
	if len(seen) != 3 {
		t.Fatalf("64 keys landed on %d of 3 workers: %v", len(seen), seen)
	}
	for u := range seen {
		if u[len(u)-1] == '/' {
			t.Fatalf("worker URL kept trailing slash: %q", u)
		}
	}
}

// TestPoolRendezvousMinimalDisruption: the HRW property the re-shard
// design rests on — losing one worker remaps ONLY the keys that worker
// owned; every key on a survivor stays exactly where its cache is warm.
// (The static FNV shard this replaced remapped ~everything.)
func TestPoolRendezvousMinimalDisruption(t *testing.T) {
	p := newWorkerPool([]string{"http://a", "http://b", "http://c"}, 0, -1, nil)
	defer p.Close()

	const keys = 256
	before := make(map[string]string, keys)
	owned := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("%016x", i*2654435761)
		before[key] = p.pick(key)
		if before[key] == "http://b" {
			owned++
		}
	}
	if owned == 0 || owned == keys {
		t.Fatalf("degenerate spread: b owns %d/%d keys", owned, keys)
	}

	p.markDead("http://b", fmt.Errorf("test"))
	moved := map[string]int{}
	for key, prev := range before {
		now := p.pick(key)
		if now == "http://b" {
			t.Fatalf("dead worker still picked for %s", key)
		}
		if prev != "http://b" && now != prev {
			t.Fatalf("key %s moved %s -> %s though its worker survived", key, prev, now)
		}
		if prev == "http://b" {
			moved[now]++
		}
	}
	// The orphaned slice must re-shard across BOTH survivors, not pile up.
	if len(moved) != 2 {
		t.Fatalf("orphaned keys landed on %d survivors: %v", len(moved), moved)
	}
}

// TestWorkerDeathReshards: the end-to-end re-shard contract — with one of
// two workers dead, every cell (including the dead worker's slice) is
// computed by the survivor, and the coordinator never simulates locally.
// A worker dead before any traffic costs one failed forward; a worker that
// dies mid-sub-stream keeps the cells it already streamed, and only its
// undelivered cells are re-sent to the survivor.
func TestWorkerDeathReshards(t *testing.T) {
	t.Run("dead before traffic", func(t *testing.T) {
		w1, ts1 := newTestFarm(t, ServerConfig{})
		_, ts2 := newTestFarm(t, ServerConfig{})
		coord, tsc := newTestFarm(t, ServerConfig{Workers: []string{ts1.URL, ts2.URL}})

		// Kill worker 2 before any traffic: its slice must re-shard onto
		// worker 1 via passive failure detection, at the cost of exactly one
		// failed forward (the first key that picks it).
		ts2.Close()

		opts := testOpts()
		benches := []string{"505.mcf", "502.gcc", "520.omnetpp", "541.leela"}
		c := fastClient(tsc.URL, true)
		for _, b := range benches {
			for _, k := range []core.SchemeKind{core.KindBaseline, core.KindNDA} {
				job := testJob(t, b, k)
				key := keyOf(job, opts)
				run, ok, err := computeCell(c, job, opts)
				if err != nil || !ok {
					t.Fatalf("cell %s: ok=%v err=%v", key, ok, err)
				}
				if !reflect.DeepEqual(run, refRun(t, job, opts)) {
					t.Fatalf("cell %s diverges after re-shard", key)
				}
			}
		}

		cs, s1 := coord.Stats(), w1.Stats()
		if cs.EngineSimulated != 0 {
			t.Fatalf("coordinator simulated despite a healthy survivor: %+v", cs)
		}
		if s1.EngineSimulated != 8 {
			t.Fatalf("survivor simulated %d of 8 cells", s1.EngineSimulated)
		}
		if cs.Forwarded != 8 {
			t.Fatalf("forwarded %d of 8 cells: %+v", cs.Forwarded, cs)
		}
		// Passive detection pays the dead worker at most one failed forward
		// (zero if the first keys all rendezvous onto the survivor).
		if cs.WorkerErrors > 1 {
			t.Fatalf("dead worker charged per key, not once: %+v", cs)
		}
		var deadSeen bool
		for _, w := range cs.Workers {
			if w.URL == ts2.URL && !w.Healthy {
				deadSeen = true
			}
		}
		if cs.WorkerErrors == 1 && !deadSeen {
			t.Fatalf("failed worker not marked dead in stats: %+v", cs.Workers)
		}
	})

	t.Run("killed mid-sub-stream", func(t *testing.T) {
		opts := testOpts()
		spec := streamSpec(t)
		spec.Schemes = core.SchemeKinds()
		spec.Benches = append(spec.Benches, testJob(t, "502.gcc", core.KindBaseline).Bench, testJob(t, "541.leela", core.KindBaseline).Bench)
		var keys []string
		for _, cfg := range spec.Configs {
			for _, k := range spec.Schemes {
				for _, b := range spec.Benches {
					keys = append(keys, keyOf(harness.CellJob{Config: cfg, Scheme: k, Bench: b}, opts))
				}
			}
		}

		w1, ts1 := newTestFarm(t, ServerConfig{})
		w2 := NewServer(ServerConfig{})
		t.Cleanup(w2.Close)
		// Worker 2 sits behind a proxy that cuts its sub-stream off after
		// half of its cells — a worker dying mid-stream. Its share is known
		// up front: rendezvous placement depends only on URLs and keys.
		var kept atomic.Int64 // cells the proxy lets through
		proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			truncating(w2.Handler(), 1+int(kept.Load()), nil).ServeHTTP(w, r)
		}))
		t.Cleanup(proxy.Close)
		owner := newWorkerPool([]string{ts1.URL, proxy.URL}, 0, -1, nil)
		defer owner.Close()
		owned := 0
		for _, k := range keys {
			if owner.pick(k) == proxy.URL {
				owned++
			}
		}
		if owned < 2 {
			t.Fatalf("worker 2 owns %d of %d cells; the test needs at least 2", owned, len(keys))
		}
		kept.Store(int64(owned / 2))

		// Probing off: nothing may revive the cut-off worker.
		coord, tsc := newTestFarm(t, ServerConfig{Workers: []string{ts1.URL, proxy.URL}, ProbeInterval: -1})
		got, err := remoteSession(t, tsc.URL, spec).Matrix(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		matricesEqual(t, got, localMatrix(t, spec), spec)

		cs, s1, s2 := coord.Stats(), w1.Stats(), w2.Stats()
		if cs.EngineSimulated != 0 || cs.WorkerErrors != 1 || cs.Forwarded != int64(len(keys)) {
			t.Fatalf("coordinator: %+v, want 0 simulated, 1 worker error, %d forwarded", cs, len(keys))
		}
		if s2.Experiments != 1 {
			t.Fatalf("dead worker asked %d times, want once", s2.Experiments)
		}
		// The survivor got its own sub-stream plus one re-shard carrying
		// exactly the cells worker 2 never delivered.
		if want := int64(len(keys)) - kept.Load(); s1.Experiments != 2 || s1.EngineCells != want {
			t.Fatalf("survivor: %d requests for %d cells, want 2 requests for %d (only the undelivered re-sent)",
				s1.Experiments, s1.EngineCells, want)
		}
	})
}

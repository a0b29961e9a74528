package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// testOpts keeps farm-test cells cheap: one cell is ~2000 simulated
// cycles, so even the soak test's whole unique set costs milliseconds.
func testOpts() harness.Options {
	o := harness.DefaultOptions()
	o.WarmupCycles = 500
	o.MeasureCycles = 1500
	return o
}

func testJob(t testing.TB, bench string, kind core.SchemeKind) harness.CellJob {
	t.Helper()
	p, err := workloads.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	return harness.CellJob{Config: core.SmallConfig(), Scheme: kind, Bench: p}
}

// keyOf derives the client-side content-addressed key of a job.
func keyOf(job harness.CellJob, opts harness.Options) string {
	return harness.NewEngine(nil, "").Key(job, opts)
}

// refRun simulates a job locally — the ground truth farm-served results
// must match byte for byte.
func refRun(t testing.TB, job harness.CellJob, opts harness.Options) harness.Run {
	t.Helper()
	r, err := harness.RunOne(job.Config, job.Scheme, job.Bench, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func newTestFarm(t *testing.T, cfg ServerConfig) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts
}

// fastClient returns an HTTPCache tuned for tests: short backoff, no
// breaker (tests that exercise the breaker configure it explicitly).
func fastClient(url string, compute bool) *HTTPCache {
	return NewHTTPCache(url, HTTPCacheOptions{
		Compute:      compute,
		Retries:      1,
		Backoff:      time.Millisecond,
		BreakerTrips: -1,
	})
}

// computeCell resolves one job through a compute-mode client as an
// experiment of one — the request the engine makes for a lone miss.
func computeCell(c *HTTPCache, job harness.CellJob, opts harness.Options) (harness.Run, bool, error) {
	var run harness.Run
	n, err := c.Resolve(context.Background(), []harness.CellJob{job}, []string{harness.CellKey(job, opts)}, opts,
		func(_ string, r harness.Run) { run = r })
	return run, n == 1, err
}

// TestFarmGetPutRoundTrip: the remote cache path — a PUT cell comes back
// byte-identical on GET, an unknown key is a clean miss, and the counters
// account for both.
func TestFarmGetPutRoundTrip(t *testing.T) {
	srv, ts := newTestFarm(t, ServerConfig{})
	opts := testOpts()
	job := testJob(t, "505.mcf", core.KindBaseline)
	key := keyOf(job, opts)
	ref := refRun(t, job, opts)

	c := fastClient(ts.URL, false)
	if _, ok, err := c.Get(key); ok || err != nil {
		t.Fatalf("empty farm: ok=%v err=%v", ok, err)
	}
	if err := c.Put(key, ref); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get(key)
	if err != nil || !ok {
		t.Fatalf("get after put: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("run changed across the wire:\ngot  %+v\nwant %+v", got, ref)
	}
	st := srv.Stats()
	if st.Gets != 2 || st.GetHits != 1 || st.Puts != 1 {
		t.Fatalf("counters: %+v", st)
	}
}

// TestFarmPutRejectsBadEnvelopes: the server's write path must validate —
// schema, key identity, scheme-name resolution — before storing anything.
func TestFarmPutRejectsBadEnvelopes(t *testing.T) {
	srv, ts := newTestFarm(t, ServerConfig{})
	opts := testOpts()
	job := testJob(t, "505.mcf", core.KindBaseline)
	key := keyOf(job, opts)
	ref := refRun(t, job, opts)

	put := func(t *testing.T, key string, env CellEnvelope) int {
		t.Helper()
		body, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPut, ts.URL+CellsPath+"/"+key, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		drainClose(resp.Body)
		return resp.StatusCode
	}

	good := newEnvelope(key, ref, false)
	badSchema := good
	badSchema.Schema = "bogus/v9"
	badScheme := good
	badScheme.Scheme = "no-such-scheme"
	mismatched := newEnvelope("0000000000000000", ref, false)

	if code := put(t, key, badSchema); code != http.StatusBadRequest {
		t.Fatalf("bad schema accepted: %d", code)
	}
	if code := put(t, key, badScheme); code != http.StatusBadRequest {
		t.Fatalf("bad scheme accepted: %d", code)
	}
	if code := put(t, key, mismatched); code != http.StatusBadRequest {
		t.Fatalf("mismatched key accepted: %d", code)
	}
	if st := srv.Stats(); st.Puts != 0 {
		t.Fatalf("rejected writes counted: %+v", st)
	}
	if code := put(t, key, good); code != http.StatusNoContent {
		t.Fatalf("good envelope rejected: %d", code)
	}
}

// recordingCache is a CellCache that records every key it is asked for.
type recordingCache struct {
	harness.CellCache
	mu   sync.Mutex
	keys []string
}

func (c *recordingCache) Get(key string) (harness.Run, bool, error) {
	c.mu.Lock()
	c.keys = append(c.keys, key)
	c.mu.Unlock()
	return c.CellCache.Get(key)
}

func (c *recordingCache) Put(key string, r harness.Run) error {
	c.mu.Lock()
	c.keys = append(c.keys, key)
	c.mu.Unlock()
	return c.CellCache.Put(key, r)
}

// TestFarmRejectsNonCanonicalKeys: GET and PUT answer 400 for any key that
// is not 32 lowercase hex digits, before the on-disk store is touched — a
// key like "../bad" would otherwise name a file outside the store.
func TestFarmRejectsNonCanonicalKeys(t *testing.T) {
	root := t.TempDir()
	planted := filepath.Join(root, "bad.json")
	if err := os.WriteFile(planted, []byte("garbage, not a cell"), 0o644); err != nil {
		t.Fatal(err)
	}
	disk, err := harness.NewDiskCache(filepath.Join(root, "store"))
	if err != nil {
		t.Fatal(err)
	}
	store := &recordingCache{CellCache: disk}
	_, ts := newTestFarm(t, ServerConfig{Cache: store})
	opts := testOpts()
	job := testJob(t, "505.mcf", core.KindBaseline)
	key := keyOf(job, opts)
	body, err := json.Marshal(newEnvelope(key, refRun(t, job, opts), false))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct{ name, path string }{
		{"escaped parent", "..%2Fbad"},
		{"too short", key[:31]},
		{"too long", key + "0"},
		{"uppercase", strings.ToUpper(key)},
		{"non-hex", key[:31] + "g"},
	} {
		for _, method := range []string{http.MethodGet, http.MethodPut} {
			req, err := http.NewRequest(method, ts.URL+CellsPath+"/"+tc.path, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d (%s), want 400", method, tc.name, resp.StatusCode, msg)
			}
			if strings.Contains(string(msg), root) {
				t.Errorf("%s %s: response leaks a server path: %s", method, tc.name, msg)
			}
		}
	}
	if len(store.keys) != 0 {
		t.Fatalf("malformed keys reached the store: %q", store.keys)
	}
	if got, err := os.ReadFile(planted); err != nil || string(got) != "garbage, not a cell" {
		t.Fatalf("planted file changed: %q, %v", got, err)
	}

	// The canonical key still round-trips.
	c := fastClient(ts.URL, false)
	if err := c.Put(key, refRun(t, job, opts)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get(key); !ok || err != nil {
		t.Fatalf("canonical key: ok=%v err=%v", ok, err)
	}
}

// FuzzCellEnvelope: decodeEnvelope never panics on arbitrary bytes, and
// an envelope it accepts re-encodes to one that decodes to the same Run.
func FuzzCellEnvelope(f *testing.F) {
	opts := testOpts()
	job := testJob(f, "505.mcf", core.KindNDA)
	key := keyOf(job, opts)
	for _, env := range []CellEnvelope{
		newEnvelope(key, refRun(f, job, opts), false),
		newEnvelope(key, harness.Run{Scheme: core.KindBaseline}, true),
	} {
		data, err := json.Marshal(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"schema":"` + Schema + `","key":"k","scheme":"no-such-scheme","run":{}}`))
	f.Add([]byte(`{not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := decodeEnvelope(bytes.NewReader(data), "")
		if err != nil {
			return
		}
		again, err := json.Marshal(env)
		if err != nil {
			t.Fatalf("accepted envelope does not marshal: %v", err)
		}
		env2, err := decodeEnvelope(bytes.NewReader(again), env.Key)
		if err != nil {
			t.Fatalf("re-encoded envelope rejected: %v", err)
		}
		if !reflect.DeepEqual(env2.Run, env.Run) {
			t.Fatalf("run changed across re-encoding:\ngot  %+v\nwant %+v", env2.Run, env.Run)
		}
	})
}

// TestFarmComputeEndToEnd: a compute client's cold one-cell request
// simulates on the farm and returns byte-identical results; the repeat is
// served from the farm's cache without simulating again, and plain GETs
// hit too.
func TestFarmComputeEndToEnd(t *testing.T) {
	srv, ts := newTestFarm(t, ServerConfig{})
	opts := testOpts()
	job := testJob(t, "505.mcf", core.KindSTTRename)
	key := keyOf(job, opts)
	ref := refRun(t, job, opts)

	c := fastClient(ts.URL, true)
	got, ok, err := computeCell(c, job, opts)
	if err != nil || !ok {
		t.Fatalf("compute: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("farm-computed run diverges from local:\ngot  %+v\nwant %+v", got, ref)
	}
	if st := srv.Stats(); st.EngineSimulated != 1 {
		t.Fatalf("farm did not simulate exactly once: %+v", st)
	}
	if _, ok, err := computeCell(c, job, opts); !ok || err != nil {
		t.Fatalf("warm compute: ok=%v err=%v", ok, err)
	}
	if got2, ok, _ := c.Get(key); !ok || !reflect.DeepEqual(got2, ref) {
		t.Fatal("computed cell not readable via GET")
	}
	st := srv.Stats()
	if st.EngineSimulated != 1 || st.EngineHits != 1 {
		t.Fatalf("warm compute re-simulated: %+v", st)
	}

	// The experiment route is the only compute route: POST on the cell
	// collection is not routed.
	resp, err := http.Post(ts.URL+CellsPath, "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	drainClose(resp.Body)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST %s = %d, want 404", CellsPath, resp.StatusCode)
	}
}

// TestFarmComputeRejectsBadJobs: a garbage body or a one-cell job naming a
// scheme this farm does not know is a 400 on the compute route, never a
// simulation.
func TestFarmComputeRejectsBadJobs(t *testing.T) {
	srv, ts := newTestFarm(t, ServerConfig{})

	post := func(body string) int {
		resp, err := http.Post(ts.URL+ExperimentsPath, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		drainClose(resp.Body)
		return resp.StatusCode
	}
	if code := post("{not json"); code != http.StatusBadRequest {
		t.Fatalf("garbage accepted: %d", code)
	}
	wire := harness.WireJobs([]harness.CellJob{testJob(t, "505.mcf", core.KindBaseline)}, testOpts())
	wire.Schemes = []string{"no-such-scheme"}
	body, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if code := post(string(body)); code != http.StatusBadRequest {
		t.Fatalf("unknown scheme accepted: %d", code)
	}
	if st := srv.Stats(); st.EngineSimulated != 0 {
		t.Fatalf("bad jobs reached the simulator: %+v", st)
	}
}

// TestFarmStatsEndpoint: the counters round-trip over HTTP.
func TestFarmStatsEndpoint(t *testing.T) {
	_, ts := newTestFarm(t, ServerConfig{})
	opts := testOpts()
	job := testJob(t, "505.mcf", core.KindBaseline)
	c := fastClient(ts.URL, true)
	if _, ok, err := computeCell(c, job, opts); !ok || err != nil {
		t.Fatalf("compute: ok=%v err=%v", ok, err)
	}

	resp, err := http.Get(ts.URL + StatsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Computes != 1 || st.EngineSimulated != 1 || st.SimCycles == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight not drained: %+v", st)
	}
}

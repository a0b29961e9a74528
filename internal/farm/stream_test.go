package farm

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// streamSpec is the test matrix behind the streaming tests: 1 config × 2
// schemes × 2 benches = 4 cells, cheap at testOpts windows.
func streamSpec(t *testing.T) harness.MatrixSpec {
	t.Helper()
	var benches []workloads.Profile
	for _, name := range []string{"505.mcf", "520.omnetpp"} {
		p, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		benches = append(benches, p)
	}
	return harness.MatrixSpec{
		Name:    "stream-test",
		Configs: []core.Config{core.SmallConfig()},
		Benches: benches,
		Schemes: []core.SchemeKind{core.KindBaseline, core.KindNDA},
	}
}

// remoteSession builds the production client stack against a farm URL: a
// memory layer over the compute-mode HTTP cache, under a Session — the
// same shape cliutil assembles for -remote-compute.
func remoteSession(t *testing.T, url string, spec harness.MatrixSpec) *harness.Session {
	t.Helper()
	return harness.NewSession(harness.SessionConfig{
		Options: testOpts(),
		Schemes: spec.Schemes,
		Cache:   harness.NewTieredCache(harness.NewMemoryCache(0), fastClient(url, true)),
	})
}

// localMatrix is the ground truth the streamed matrix must match exactly.
func localMatrix(t *testing.T, spec harness.MatrixSpec) *harness.Matrix {
	t.Helper()
	s := harness.NewSession(harness.SessionConfig{Options: testOpts(), Schemes: spec.Schemes})
	m, err := s.Matrix(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// matricesEqual compares every cell of two matrices structurally — Runs
// included, so it is byte-identical figures, not just matching means.
func matricesEqual(t *testing.T, got, want *harness.Matrix, spec harness.MatrixSpec) {
	t.Helper()
	for _, cfg := range spec.Configs {
		for _, kind := range spec.Schemes {
			g, ok1 := got.Cell(cfg.Name, kind)
			w, ok2 := want.Cell(cfg.Name, kind)
			if !ok1 || !ok2 {
				t.Fatalf("cell %s/%s missing: got=%v want=%v", cfg.Name, kind, ok1, ok2)
			}
			if !reflect.DeepEqual(g.Runs, w.Runs) || g.MeanIPC != w.MeanIPC {
				t.Fatalf("cell %s/%s diverges from local ground truth", cfg.Name, kind)
			}
		}
	}
}

// TestExperimentStreamEndToEnd: a cold remote matrix through the full
// production stack costs the farm exactly ONE request — the streaming
// experiment — and zero per-cell computes, streams every cell, and yields
// figures byte-identical to a local run. This is the tentpole contract:
// 1 POST /v1/experiments instead of cells-many POSTs.
func TestExperimentStreamEndToEnd(t *testing.T) {
	srv, ts := newTestFarm(t, ServerConfig{})
	spec := streamSpec(t)

	sess := remoteSession(t, ts.URL, spec)
	got, err := sess.Matrix(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, got, localMatrix(t, spec), spec)

	st := srv.Stats()
	if st.Experiments != 1 {
		t.Fatalf("cold matrix cost %d experiment requests, want exactly 1: %+v", st.Experiments, st)
	}
	if st.Computes != 0 {
		t.Fatalf("cold matrix fell back to %d per-cell computes: %+v", st.Computes, st)
	}
	if st.StreamedCells != 4 {
		t.Fatalf("streamed %d of 4 cells: %+v", st.StreamedCells, st)
	}
	if st.EngineSimulated != 4 {
		t.Fatalf("farm simulated %d of 4 cells: %+v", st.EngineSimulated, st)
	}
	// Every cell reached the client through the stream: all hits, no
	// local simulation.
	cs := sess.Stats()
	if cs.Simulated != 0 || cs.Hits != cs.Cells {
		t.Fatalf("client cells were not all served by the stream: %+v", cs)
	}
	if st.Latency["experiments"].Count == 0 {
		t.Fatalf("experiment latency unobserved: %+v", st.Latency)
	}
}

// truncatingProxy forwards every route to inner, but replays only the
// first keepLines NDJSON lines of an experiment stream and drops the rest
// — the wire image of a farm that died mid-experiment. When forget is
// set, it is handed the key of every dropped cell, so the farm's store
// can lose what the dead farm never got to stream.
func truncatingProxy(t *testing.T, inner http.Handler, keepLines int, forget func(key string)) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(truncating(inner, keepLines, forget))
	t.Cleanup(ts.Close)
	return ts
}

// truncating is truncatingProxy's handler.
func truncating(inner http.Handler, keepLines int, forget func(key string)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != ExperimentsPath {
			inner.ServeHTTP(w, r)
			return
		}
		r.Header.Del("Accept-Encoding") // keep the recorded stream plaintext
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		sc := bufio.NewScanner(rec.Body)
		sc.Buffer(make([]byte, 64<<10), maxBodyBytes)
		for i := 0; sc.Scan(); i++ {
			if i < keepLines {
				fmt.Fprintf(w, "%s\n", sc.Bytes())
				continue
			}
			var env CellEnvelope
			if forget != nil && json.Unmarshal(sc.Bytes(), &env) == nil && env.Schema == Schema {
				forget(env.Key)
			}
		}
		// Returning without the trailer ends the chunked body cleanly:
		// the client sees EOF where the trailer should be.
	})
}

// forgetfulStore is a farm store whose forgotten keys read as misses
// until they are written again.
type forgetfulStore struct {
	harness.CellCache
	mu   sync.Mutex
	gone map[string]bool
}

func (s *forgetfulStore) Get(key string) (harness.Run, bool, error) {
	s.mu.Lock()
	gone := s.gone[key]
	s.mu.Unlock()
	if gone {
		return harness.Run{}, false, nil
	}
	return s.CellCache.Get(key)
}

func (s *forgetfulStore) Put(key string, r harness.Run) error {
	s.mu.Lock()
	delete(s.gone, key)
	s.mu.Unlock()
	return s.CellCache.Put(key, r)
}

func (s *forgetfulStore) forget(key string) {
	s.mu.Lock()
	s.gone[key] = true
	s.mu.Unlock()
}

// TestStreamTruncatedTyped: a stream that dies before its trailer must
// surface as a *StreamError wrapping ErrStreamTruncated, with Delivered
// counting the cells that did arrive (and remain valid).
func TestStreamTruncatedTyped(t *testing.T) {
	srv, _ := newTestFarm(t, ServerConfig{})
	proxy := truncatingProxy(t, srv.Handler(), 2, nil) // header + 1 cell, no trailer

	spec := streamSpec(t)
	wire := harness.WireExperiment(spec, testOpts())
	delivered := 0
	n, err := NewStreamClient(proxy.URL, nil).Experiment(context.Background(), wire, func(CellEnvelope) error {
		delivered++
		return nil
	})
	if !errors.Is(err, ErrStreamTruncated) {
		t.Fatalf("truncated stream error = %v, want ErrStreamTruncated", err)
	}
	var se *StreamError
	if !errors.As(err, &se) || se.Reason != "truncated" {
		t.Fatalf("truncated stream error not typed: %#v", err)
	}
	if n != 1 || delivered != 1 || se.Delivered != 1 {
		t.Fatalf("delivered accounting: n=%d cb=%d se=%d, want 1 each", n, delivered, se.Delivered)
	}

	// Malformed line orders: only header, cells, trailer — each header
	// and trailer exactly once — is a complete stream; everything else is
	// a typed failure that still counts the cells it delivered.
	header, cell, trailer := streamLines(t)
	for _, tc := range []struct {
		name      string
		lines     []string
		reason    string
		delivered int
	}{
		{"complete", []string{header, cell, trailer}, "", 1},
		{"no trailer", []string{header, cell}, "truncated", 1},
		{"empty", nil, "truncated", 0},
		{"trailer before header", []string{trailer, header, cell}, "protocol", 0},
		{"cell before header", []string{cell, header, trailer}, "protocol", 0},
		{"second header", []string{header, cell, header, trailer}, "protocol", 1},
		{"cell after trailer", []string{header, trailer, cell}, "protocol", 0},
		{"header after trailer", []string{header, cell, trailer, header}, "protocol", 1},
		{"second trailer", []string{header, cell, trailer, trailer}, "protocol", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := strings.Join(tc.lines, "\n")
			n, err := NewStreamClient("", nil).consume(strings.NewReader(body), func(CellEnvelope) error { return nil })
			if n != tc.delivered {
				t.Fatalf("delivered %d cells, want %d", n, tc.delivered)
			}
			if tc.reason == "" {
				if err != nil {
					t.Fatalf("complete stream rejected: %v", err)
				}
				return
			}
			var se *StreamError
			if !errors.As(err, &se) || se.Reason != tc.reason || se.Delivered != n {
				t.Fatalf("error = %v, want a %q StreamError after %d cells", err, tc.reason, n)
			}
		})
	}
}

// streamLines renders one valid header, cell and trailer line.
func streamLines(t testing.TB) (header, cell, trailer string) {
	t.Helper()
	line := func(v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	return line(StreamHeader{Schema: StreamHeaderSchema, Cells: 1}),
		line(newEnvelope("k", harness.Run{Scheme: core.KindNDA}, false)),
		line(StreamTrailer{Schema: StreamTrailerSchema, Done: 1})
}

// TestStreamDeathFallsBackPerCell: when the experiment stream dies
// mid-flight, the session must still produce byte-identical figures — the
// partial stream's cells are kept, and the engine's per-cell walk resolves
// each remaining cell as a store read and then an experiment of one. The
// farm's store loses the cells it never streamed, as a farm that died
// mid-experiment would, so those reads are 404s.
func TestStreamDeathFallsBackPerCell(t *testing.T) {
	store := &forgetfulStore{CellCache: harness.NewMemoryCache(0), gone: map[string]bool{}}
	srv, _ := newTestFarm(t, ServerConfig{Cache: store})
	proxy := truncatingProxy(t, srv.Handler(), 3, store.forget) // header + 2 cells, no trailer

	spec := streamSpec(t)
	sess := remoteSession(t, proxy.URL, spec)
	got, err := sess.Matrix(context.Background(), spec)
	if err != nil {
		t.Fatalf("matrix failed instead of degrading per-cell: %v", err)
	}
	matricesEqual(t, got, localMatrix(t, spec), spec)

	st := srv.Stats()
	// 2 cells arrived on the stream; the other 2 came per cell, each as
	// one GET miss and one one-cell experiment.
	if st.Experiments != 3 {
		t.Fatalf("experiment requests = %d, want 1 stream + 2 one-cell: %+v", st.Experiments, st)
	}
	if st.Computes != 2 {
		t.Fatalf("per-cell fallback resolved %d cells, want exactly the 2 the stream lost: %+v", st.Computes, st)
	}
	if st.Gets != 2 || st.GetHits != 0 {
		t.Fatalf("per-cell fallback store reads: gets=%d hits=%d, want 2 misses: %+v", st.Gets, st.GetHits, st)
	}
	if cs := sess.Stats(); cs.Simulated != 0 {
		t.Fatalf("client simulated locally despite a live farm: %+v", cs)
	}
}

// TestStreamRejectsBadExperiments: invalid experiment requests are 400s
// surfaced as typed server errors carrying the status, never simulations.
func TestStreamRejectsBadExperiments(t *testing.T) {
	srv, ts := newTestFarm(t, ServerConfig{})
	wire := harness.WireExperiment(streamSpec(t), testOpts())
	wire.Schemes = []string{"no-such-scheme"}
	_, err := NewStreamClient(ts.URL, nil).Experiment(context.Background(), wire, func(CellEnvelope) error {
		t.Fatal("cell delivered from a rejected experiment")
		return nil
	})
	var se *StreamError
	if !errors.As(err, &se) || se.Reason != "server" || se.Status != http.StatusBadRequest || !rejected(err) {
		t.Fatalf("rejection not a typed 400 server error: %v", err)
	}
	if st := srv.Stats(); st.EngineSimulated != 0 {
		t.Fatalf("rejected experiment reached the simulator: %+v", st)
	}
}

// TestStreamSlowConsumer: a consumer that dawdles over every line must not
// stall the farm — the server's stream writer queues lines instead of
// blocking the engine's completion broadcast, the experiment still
// delivers every cell, and the server drains to idle.
func TestStreamSlowConsumer(t *testing.T) {
	srv, ts := newTestFarm(t, ServerConfig{})
	spec := streamSpec(t)
	wire := harness.WireExperiment(spec, testOpts())

	delivered := 0
	n, err := NewStreamClient(ts.URL, nil).Experiment(context.Background(), wire, func(CellEnvelope) error {
		time.Sleep(50 * time.Millisecond)
		delivered++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || delivered != 4 {
		t.Fatalf("slow consumer got %d/%d of 4 cells", delivered, n)
	}
	st := srv.Stats()
	if st.InFlight != 0 {
		t.Fatalf("server did not drain after slow consumer: %+v", st)
	}
	if st.StreamedCells != 4 {
		t.Fatalf("streamed cells: %+v", st)
	}
}

// gatedStore lets the first store read through at once and holds every
// later one until release is closed, so an experiment cannot finish
// before the test lets it.
type gatedStore struct {
	harness.CellCache
	reads   atomic.Int64
	release chan struct{}
}

func (s *gatedStore) Get(key string) (harness.Run, bool, error) {
	if s.reads.Add(1) > 1 {
		<-s.release
	}
	return s.CellCache.Get(key)
}

// TestStreamFlushesFirstCell: through the full handler stack — request
// logging included — a client must read the first cell of a compressed
// experiment stream while the experiment is still running, not once a
// buffer fills or the stream ends.
func TestStreamFlushesFirstCell(t *testing.T) {
	store := &gatedStore{CellCache: harness.NewMemoryCache(0), release: make(chan struct{})}
	srv, ts := newTestFarm(t, ServerConfig{Cache: store})
	released := false
	release := func() {
		if !released {
			close(store.release)
			released = true
		}
	}
	defer release() // runs before any deferred body drain: the stream ends only once released
	body, err := json.Marshal(harness.WireExperiment(streamSpec(t), testOpts()))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+ExperimentsPath, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "gzip")
	hc := &http.Client{Transport: &http.Transport{DisableCompression: true}}

	// Read the header and the first cell; without a flush even the
	// response headers stay buffered on the server.
	var lines *bufio.Reader
	first := make(chan error, 1)
	go func() {
		resp, err := hc.Do(req)
		if err != nil {
			first <- err
			return
		}
		if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
			first <- fmt.Errorf("stream Content-Encoding %q, want gzip", enc)
			return
		}
		gz, err := gzip.NewReader(resp.Body)
		if err != nil {
			first <- err
			return
		}
		lines = bufio.NewReader(gz)
		for _, want := range []string{StreamHeaderSchema, Schema} {
			line, err := lines.ReadBytes('\n')
			if err != nil {
				first <- err
				return
			}
			var probe struct{ Schema string }
			if err := json.Unmarshal(line, &probe); err != nil || probe.Schema != want {
				first <- fmt.Errorf("line %q: schema %q, want %q (err %v)", line, probe.Schema, want, err)
				return
			}
		}
		first <- nil
	}()
	select {
	case err := <-first:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("first cell not delivered while the experiment runs: the stream is not flushed")
	}
	if st := srv.Stats(); st.InFlight != 1 || st.StreamedCells != 1 {
		t.Fatalf("first cell read after the experiment moved on: %+v", st)
	}
	release()
	rest, err := io.ReadAll(lines)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(rest, []byte("\n")); n != 3+1 {
		t.Fatalf("rest of the stream has %d lines, want 3 cells and the trailer", n)
	}
}

// TestStreamConsumerAbort: an fn error must abort the stream and come back
// exactly as returned, not wrapped into a protocol failure.
func TestStreamConsumerAbort(t *testing.T) {
	_, ts := newTestFarm(t, ServerConfig{})
	wire := harness.WireExperiment(streamSpec(t), testOpts())
	boom := errors.New("consumer says no")
	n, err := NewStreamClient(ts.URL, nil).Experiment(context.Background(), wire, func(CellEnvelope) error {
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("fn error rewritten: %v", err)
	}
	if n != 0 {
		t.Fatalf("aborted cell counted as delivered: %d", n)
	}
}

// TestGzipNegotiation: both request and response bodies round-trip
// compressed when negotiated — and the server never compresses at a
// client that did not ask.
func TestGzipNegotiation(t *testing.T) {
	_, ts := newTestFarm(t, ServerConfig{})
	opts := testOpts()
	job := testJob(t, "505.mcf", core.KindBaseline)
	key := keyOf(job, opts)
	ref := refRun(t, job, opts)

	// Gzipped PUT: explicit Content-Encoding on a compressed envelope.
	body, err := json.Marshal(newEnvelope(key, ref, false))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+CellsPath+"/"+key, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	drainClose(resp.Body)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("gzipped put rejected: %d", resp.StatusCode)
	}

	// Negotiated GET: the response comes back gzip-encoded and decodes to
	// the identical run. DisableCompression keeps Go's transparent layer
	// out so the wire encoding is visible.
	hc := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	greq, err := http.NewRequest(http.MethodGet, ts.URL+CellsPath+"/"+key, nil)
	if err != nil {
		t.Fatal(err)
	}
	greq.Header.Set("Accept-Encoding", "gzip")
	gresp, err := hc.Do(greq)
	if err != nil {
		t.Fatal(err)
	}
	defer drainClose(gresp.Body)
	if enc := gresp.Header.Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("negotiated response not gzipped: %q", enc)
	}
	rd, release, err := maybeGunzip(gresp)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	env, err := decodeEnvelope(rd, key)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(env.Run, ref) {
		t.Fatal("gzip round trip changed the run")
	}

	// Unnegotiated GET: identity body.
	presp, err := hc.Get(ts.URL + CellsPath + "/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer drainClose(presp.Body)
	if enc := presp.Header.Get("Content-Encoding"); enc != "" {
		t.Fatalf("server compressed without negotiation: %q", enc)
	}

	// The production client paths negotiate end to end.
	c := fastClient(ts.URL, false)
	got, ok, err := c.Get(key)
	if err != nil || !ok || !reflect.DeepEqual(got, ref) {
		t.Fatalf("client gzip get: ok=%v err=%v", ok, err)
	}
}

// TestGzipStreamNegotiation: the experiment stream itself compresses when
// negotiated, while a one-cell stream ships identity regardless.
func TestGzipStreamNegotiation(t *testing.T) {
	_, ts := newTestFarm(t, ServerConfig{})
	hc := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	for _, tc := range []struct {
		wire  harness.ExperimentJobWire
		cells int
		enc   string
	}{
		{harness.WireExperiment(streamSpec(t), testOpts()), 4, "gzip"},
		{harness.WireJobs([]harness.CellJob{testJob(t, "505.mcf", core.KindNDA)}, testOpts()), 1, ""},
	} {
		body, err := json.Marshal(tc.wire)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+ExperimentsPath, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept-Encoding", "gzip")
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer drainClose(resp.Body)
		if enc := resp.Header.Get("Content-Encoding"); enc != tc.enc {
			t.Fatalf("%s: stream Content-Encoding %q, want %q", tc.wire.Name, enc, tc.enc)
		}
		rd, release, err := maybeGunzip(resp)
		if err != nil {
			t.Fatal(err)
		}
		n, err := NewStreamClient(ts.URL, nil).consume(rd, func(CellEnvelope) error { return nil })
		release()
		if err != nil || n != tc.cells {
			t.Fatalf("%s: n=%d err=%v, want %d cells", tc.wire.Name, n, err, tc.cells)
		}
	}
}

// TestMaybeGzipThreshold: tiny bodies ship identity (compression overhead
// exceeds the win), big compressible bodies ship gzip.
func TestMaybeGzipThreshold(t *testing.T) {
	if _, enc := maybeGzip([]byte(`{"small":true}`)); enc != "" {
		t.Fatalf("small body compressed: %q", enc)
	}
	big := []byte(strings.Repeat(`{"cell":"repetitive json compresses"},`, 200))
	payload, enc := maybeGzip(big)
	if enc != "gzip" {
		t.Fatalf("large body not compressed: %q", enc)
	}
	if len(payload) >= len(big) {
		t.Fatalf("compression grew the body: %d -> %d", len(big), len(payload))
	}
	rd, err := gzip.NewReader(bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	round, err := io.ReadAll(rd)
	if err != nil || !bytes.Equal(round, big) {
		t.Fatalf("gzip round trip: err=%v", err)
	}
}

// TestMaybeGzipReusesCodec: compressing a request body reuses a pooled
// gzip writer instead of allocating a fresh one (about 800 KB of flate
// state and 20 allocations) per body, and the reused writer emits exactly
// the bytes a fresh one does. The bound leaves room for the race
// detector, under which sync.Pool drops a quarter of its puts.
func TestMaybeGzipReusesCodec(t *testing.T) {
	big := []byte(strings.Repeat(`{"cell":"repetitive json compresses"},`, 200))
	var fresh bytes.Buffer
	gz := gzip.NewWriter(&fresh)
	gz.Write(big) //nolint:errcheck // bytes.Buffer writes cannot fail
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	for range 3 { // the first call may build the writer, later ones reuse it
		if payload, _ := maybeGzip(big); !bytes.Equal(payload, fresh.Bytes()) {
			t.Fatal("pooled gzip writer output differs from a fresh writer's")
		}
	}
	if n := testing.AllocsPerRun(50, func() { maybeGzip(big) }); n > 10 {
		t.Fatalf("maybeGzip allocates %.1f times per body, want <= 10 (a fresh gzip.Writer costs 20)", n)
	}
}

// TestStatsSchemaAndLatency: /v1/stats carries its schema stamp and
// ordered per-endpoint latency percentiles.
func TestStatsSchemaAndLatency(t *testing.T) {
	_, ts := newTestFarm(t, ServerConfig{})
	opts := testOpts()
	job := testJob(t, "505.mcf", core.KindBaseline)
	c := fastClient(ts.URL, true)
	if _, ok, err := computeCell(c, job, opts); !ok || err != nil {
		t.Fatalf("compute: ok=%v err=%v", ok, err)
	}
	if _, _, err := c.Get(keyOf(job, opts)); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + StatsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer drainClose(resp.Body)
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Schema != StatsSchema {
		t.Fatalf("stats schema = %q, want %q", st.Schema, StatsSchema)
	}
	for _, ep := range []string{"experiments", "get_cell"} {
		l, ok := st.Latency[ep]
		if !ok || l.Count == 0 {
			t.Fatalf("endpoint %s unobserved: %+v", ep, st.Latency)
		}
		if l.P50 <= 0 || l.P50 > l.P95 || l.P95 > l.P99 {
			t.Fatalf("endpoint %s percentiles disordered: %+v", ep, l)
		}
	}
	if _, ok := st.Latency["put_cell"]; ok {
		t.Fatalf("unobserved endpoint reported: %+v", st.Latency)
	}
}

// FuzzStreamConsume: arbitrary bytes on the stream never panic the
// reader, Delivered never exceeds the number of cell lines, and every
// failure is typed with the same count.
func FuzzStreamConsume(f *testing.F) {
	header, cell, trailer := streamLines(f)
	f.Add([]byte(header + "\n" + cell + "\n" + trailer + "\n"))
	f.Add([]byte(header + "\n" + cell + "\n" + cell + "\n"))
	f.Add([]byte(header + "\n" + trailer + "\n" + cell + "\n"))
	f.Add([]byte(cell + "\n" + header + "\n" + trailer + "\n"))
	f.Add([]byte("{not json\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cells := 0
		for _, line := range bytes.Split(data, []byte("\n")) {
			var probe struct {
				Schema string `json:"schema"`
			}
			if json.Unmarshal(bytes.TrimSpace(line), &probe) == nil && probe.Schema == Schema {
				cells++
			}
		}
		delivered := 0
		n, err := NewStreamClient("", nil).consume(bytes.NewReader(data), func(CellEnvelope) error {
			delivered++
			return nil
		})
		if n != delivered || n > cells {
			t.Fatalf("delivered %d (callback %d) from %d cell lines", n, delivered, cells)
		}
		var se *StreamError
		if err != nil && (!errors.As(err, &se) || se.Delivered != n) {
			t.Fatalf("untyped or miscounted stream failure: %v", err)
		}
	})
}

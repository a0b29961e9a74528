package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	sb "repro"
	"repro/internal/farm"
	"repro/internal/harness"
)

// The three workloads. Every load is closed-loop with one client: the next
// request is sent only after the previous one completed. A cold pass
// evaluates over an empty store, so every cell is simulated somewhere; a
// warm pass is a fresh session over a filled store, which simulates
// nothing.

const (
	// warmPerCold is the number of warm re-runs cold-eval makes over each
	// freshly filled cache directory.
	warmPerCold = 5
	// setupReps is the number of times every workload repeats its set-up.
	setupReps = 2
	// warmPerFarm is the number of re-reading client sessions farm-stream
	// makes after each cold session: one per pass gives too few warm
	// samples for a steady median.
	warmPerFarm = 3
	// maxFarmPasses bounds farm-stream's passes: each pass needs a
	// measurement window of its own (see farmOptions).
	maxFarmPasses = 64
	// probesPerCold is the number of first-cell probes cold-eval makes
	// after each cold pass: a pass yields one first-cell sample, too few
	// for a steady median.
	probesPerCold = 8
	// spotChecks is the number of cells per pass re-simulated locally with
	// harness.RunOne and compared with what the session returned.
	spotChecks = 2
	// farmStoreCells bounds every farm server's in-memory store: two
	// passes of table1 cells, so only the current pass must stay resident.
	farmStoreCells = 2 * 528
)

// The paper's reference points: Figure 6's mean normalized IPC on Mega and
// Table 1's baseline IPC per configuration.
var (
	paperNormIPCMega = []struct {
		scheme sb.Scheme
		ipc    float64
	}{{sb.STTRename, 0.819}, {sb.STTIssue, 0.845}, {sb.NDA, 0.736}}
	paperBaseIPC = []struct {
		config string
		ipc    float64
	}{{"small", 0.46}, {"medium", 0.60}, {"large", 0.943}, {"mega", 1.27}}
)

// evaluation is one pass: a session rendering the workload's experiments.
type evaluation struct {
	sess      *sb.Session
	texts     map[string]string // rendered text per experiment id
	text      string            // every text, in registry order
	ms        float64           // wall time from start to the last text
	firstCell float64           // ms from start to the first resolved cell
	stats     sb.SessionStats
	digest    string // simDigest of the pass's cells
}

// evaluate renders the experiments in order through sess, whose cells are
// those of specs. start is when the pass began (before its session was
// opened). The digest is taken after the pass's time.
func evaluate(ctx context.Context, sess *sb.Session, order []string, specs []sb.MatrixSpec, tr *tracer, start time.Time) (evaluation, error) {
	var first atomic.Int64
	cancel := sess.Subscribe(func(sb.CellResult) { first.CompareAndSwap(0, int64(time.Since(start))) })
	defer cancel()
	ev := evaluation{sess: sess, texts: make(map[string]string, len(order))}
	for _, id := range order {
		sp := tr.begin("session.experiment", tr.current())
		restore := tr.enter(sp)
		out, err := sess.Experiment(ctx, id)
		restore()
		tr.end(sp)
		if err != nil {
			return evaluation{}, fmt.Errorf("experiment %s: %w", id, err)
		}
		ev.texts[id] = out
	}
	ev.ms = msSince(start)
	ev.firstCell = float64(first.Load()) / 1e6
	ev.stats = sess.Stats()
	var all strings.Builder
	for _, id := range sb.ExperimentIDs() {
		if out, ok := ev.texts[id]; ok {
			fmt.Fprintf(&all, "== %s\n%s\n", id, out)
		}
	}
	ev.text = all.String()
	var err error
	ev.digest, err = simDigest(ctx, sess, specs)
	return ev, err
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// openDisk opens the standard memory-over-disk cell store on dir:
// OpenCache untraced, and the same two tiers behind timers when traced.
func openDisk(dir string, tr *tracer) (sb.CellCache, error) {
	if tr == nil {
		return sb.OpenCache(sb.CacheOptions{Dir: dir})
	}
	disk, err := harness.NewDiskCache(dir)
	if err != nil {
		return nil, err
	}
	return harness.NewTieredCache(
		&tierCache{CellCache: harness.NewMemoryCache(0), name: "mem", tr: tr},
		&tierCache{CellCache: disk, name: "disk", tr: tr, dir: dir},
	), nil
}

// settle collects the garbage of earlier passes, so every pass starts
// from the same heap state.
func settle() { runtime.GC() }

// warmupOptions are the short windows of the set-up evaluations: table1's
// cells at them take about a second, and no pass asks for them.
func warmupOptions(parallelism int) sb.Options {
	return sb.Options{Scale: 1, WarmupCycles: 1000, MeasureCycles: 4000, Parallelism: parallelism}
}

// localOptions are the default evaluation windows at one simulation per CPU.
func localOptions() sb.Options {
	opts := sb.DefaultOptions()
	opts.Parallelism = runtime.NumCPU()
	return opts
}

// evalSpecs are the cell sets behind every registered experiment.
var evalSpecs = []sb.MatrixSpec{sb.BoomSpec(), sb.Gem5Spec()}

// warmPass opens a fresh store and session over the filled directory and
// renders every experiment; opening is part of the pass, as in a warm
// re-run.
func warmPass(ctx context.Context, dir string, opts sb.Options, order []string, tr *tracer) (evaluation, error) {
	settle()
	start := time.Now()
	sp := tr.begin("pass.warm", 0)
	restore := tr.enter(sp)
	defer tr.end(sp)
	defer restore()
	cache, err := openDisk(dir, tr)
	if err != nil {
		return evaluation{}, err
	}
	return evaluate(ctx, sb.NewSession(sb.SessionConfig{Options: opts, Cache: cache}), order, evalSpecs, tr, start)
}

// coldEval runs the full evaluation into a fresh on-disk cache at one
// simulation per CPU, then re-runs it warm over that cache. Set-up is a
// short warm-up evaluation of table1 into a fresh store.
func coldEval(ctx context.Context, b *bench) error {
	opts := localOptions()
	order := b.experimentOrder()
	for i := range setupReps {
		dir := filepath.Join(b.workdir, fmt.Sprintf("setup-%d", i))
		start := time.Now()
		cache, err := openDisk(dir, nil)
		if err != nil {
			return err
		}
		sess := sb.NewSession(sb.SessionConfig{Options: warmupOptions(opts.Parallelism), Cache: cache})
		if _, err := evaluate(ctx, sess, []string{"table1"}, []sb.MatrixSpec{sb.BoomSpec()}, nil, start); err != nil {
			return err
		}
		b.setup = append(b.setup, time.Since(start).Seconds())
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	var ref string
	loop := time.Now()
	for i := 0; i == 0 || time.Since(loop) < b.budget; i++ {
		tr := b.tracerFor(i)
		dir := filepath.Join(b.workdir, fmt.Sprintf("cold-%d", i))
		settle()
		start := time.Now()
		sp := tr.begin("pass.cold", 0)
		restore := tr.enter(sp)
		cache, err := openDisk(dir, tr)
		if err != nil {
			return err
		}
		sess := sb.NewSession(sb.SessionConfig{Options: opts, Cache: cache})
		ev, err := evaluate(ctx, sess, order, evalSpecs, tr, start)
		restore()
		tr.end(sp)
		if err != nil {
			return err
		}
		b.cold = append(b.cold, ev.ms)
		b.simCycles += ev.stats.SimCycles
		b.simSeconds += ev.ms / 1000
		b.cells += ev.stats.Cells
		b.passSeconds += ev.ms / 1000
		b.firstCell = append(b.firstCell, ev.firstCell)
		b.primary(i, ev.ms, tr)
		var problems []string
		if i == 0 {
			ref, b.digest = ev.text, ev.digest
			if err := b.recordModel(ctx, sess); err != nil {
				return err
			}
		}
		need(&problems, ev.text == ref, "rendered text differs from the first pass")
		need(&problems, ev.digest == b.digest, "cell statistics differ from the first pass")
		need(&problems, ev.stats.Hits == 0, "%d cells served from an empty store", ev.stats.Hits)
		problems = append(problems, b.spotCheck(ctx, sess, evalSpecs, opts, uint64(i))...)
		b.verify(fmt.Sprintf("cold pass %d", i), problems)
		if err := tr.pass(ctx, ev, evalSpecs, opts); err != nil {
			return err
		}

		for k := range probesPerCold {
			ms, err := firstCellProbe(ctx, filepath.Join(b.workdir, fmt.Sprintf("probe-%d-%d", i, k)), opts, order)
			var problems []string
			need(&problems, err == nil, "%v", err)
			b.verify(fmt.Sprintf("first-cell probe %d.%d", i, k), problems)
			if err == nil {
				b.firstCell = append(b.firstCell, ms)
			}
		}

		for w := 0; w < warmPerCold; w++ {
			wev, err := warmPass(ctx, dir, opts, order, tr)
			if err != nil {
				return err
			}
			b.warm = append(b.warm, wev.ms)
			b.cells += wev.stats.Cells
			b.passSeconds += wev.ms / 1000
			problems = nil
			need(&problems, wev.text == ref, "rendered text differs from the first pass")
			need(&problems, wev.digest == b.digest, "cell statistics differ from the first pass")
			need(&problems, wev.stats.Simulated == 0, "warm pass simulated %d cells", wev.stats.Simulated)
			b.verify(fmt.Sprintf("warm pass %d.%d", i, w), problems)
			if err := tr.pass(ctx, wev, evalSpecs, opts); err != nil {
				return err
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return b.resimulate(opts)
}

// firstCellProbe starts a cold evaluation on a fresh store in dir and
// stops it at the first resolved cell: the wait for the first result of a
// cold run. It returns that wait in ms and removes dir.
func firstCellProbe(ctx context.Context, dir string, opts sb.Options, order []string) (float64, error) {
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	settle()
	start := time.Now()
	cache, err := openDisk(dir, nil)
	if err != nil {
		return 0, err
	}
	sess := sb.NewSession(sb.SessionConfig{Options: opts, Cache: cache})
	var first atomic.Int64
	unsubscribe := sess.Subscribe(func(sb.CellResult) {
		if first.CompareAndSwap(0, int64(time.Since(start))) {
			cancel()
		}
	})
	defer unsubscribe()
	for _, id := range order {
		if _, err := sess.Experiment(pctx, id); err != nil {
			if first.Load() == 0 || !errors.Is(err, context.Canceled) {
				return 0, fmt.Errorf("experiment %s: %w", id, err)
			}
			break
		}
	}
	if first.Load() == 0 {
		return 0, fmt.Errorf("no cell resolved")
	}
	return float64(first.Load()) / 1e6, os.RemoveAll(dir)
}

// warmDisk fills a disk cache in set-up, then measures warm re-runs: each
// opens a fresh store and session over the directory and renders every
// experiment without simulating.
func warmDisk(ctx context.Context, b *bench) error {
	opts := localOptions()
	order := b.experimentOrder()
	var dir, ref string
	for i := range setupReps {
		fill := filepath.Join(b.workdir, fmt.Sprintf("fill-%d", i))
		settle()
		start := time.Now()
		cache, err := openDisk(fill, nil)
		if err != nil {
			return err
		}
		ev, err := evaluate(ctx, sb.NewSession(sb.SessionConfig{Options: opts, Cache: cache}), order, evalSpecs, nil, start)
		if err != nil {
			return err
		}
		b.setup = append(b.setup, time.Since(start).Seconds())
		b.cold = append(b.cold, ev.ms)
		b.simCycles += ev.stats.SimCycles
		b.simSeconds += ev.ms / 1000
		var problems []string
		if i == 0 {
			ref, b.digest = ev.text, ev.digest
			if err := b.recordModel(ctx, ev.sess); err != nil {
				return err
			}
			problems = b.spotCheck(ctx, ev.sess, evalSpecs, opts, 0)
		}
		need(&problems, ev.text == ref, "rendered text differs from the first fill")
		need(&problems, ev.digest == b.digest, "cell statistics differ from the first fill")
		need(&problems, ev.stats.Hits == 0, "%d cells served from an empty store", ev.stats.Hits)
		b.verify(fmt.Sprintf("fill %d", i), problems)
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		dir = fill
	}

	loop := time.Now()
	for i := 0; i == 0 || time.Since(loop) < b.budget; i++ {
		tr := b.tracerFor(i)
		ev, err := warmPass(ctx, dir, opts, order, tr)
		if err != nil {
			return err
		}
		b.warm = append(b.warm, ev.ms)
		b.firstCell = append(b.firstCell, ev.firstCell)
		b.primary(i, ev.ms, tr)
		b.cells += ev.stats.Cells
		b.passSeconds += ev.ms / 1000
		var problems []string
		need(&problems, ev.text == ref, "rendered text differs from the first fill")
		need(&problems, ev.digest == b.digest, "cell statistics differ from the first fill")
		need(&problems, ev.stats.Simulated == 0, "warm pass simulated %d cells", ev.stats.Simulated)
		b.verify(fmt.Sprintf("warm pass %d", i), problems)
		if err := tr.pass(ctx, ev, evalSpecs, opts); err != nil {
			return err
		}
	}
	return b.resimulate(opts)
}

// recordModel derives the accuracy metrics from a pass's Boom matrix: the
// gap between the reproduced and the paper's Figure 6 means and Table 1
// baseline IPC.
func (b *bench) recordModel(ctx context.Context, sess *sb.Session) error {
	boom, err := sess.Matrix(ctx, sb.BoomSpec())
	if err != nil {
		return err
	}
	b.normErr, b.baseErr = 0, 0
	for _, p := range paperNormIPCMega {
		b.normErr += math.Abs(boom.NormIPC("mega", p.scheme)-p.ipc) / float64(len(paperNormIPCMega))
	}
	for _, p := range paperBaseIPC {
		b.baseErr += math.Abs(boom.MeanIPC(p.config, sb.Baseline)-p.ipc) / p.ipc / float64(len(paperBaseIPC))
	}
	return nil
}

// simDigest hashes the core statistics of every cell of specs, as the
// session resolved them.
func simDigest(ctx context.Context, sess *sb.Session, specs []sb.MatrixSpec) (string, error) {
	h := sha256.New()
	for _, spec := range specs {
		m, err := sess.Matrix(ctx, spec)
		if err != nil {
			return "", err
		}
		for _, cfg := range m.Configs {
			for _, kind := range m.Schemes {
				cell, ok := m.Cell(cfg.Name, kind)
				if !ok {
					return "", fmt.Errorf("matrix %s lacks cell %s/%s", spec.Name, cfg.Name, kind)
				}
				for _, r := range cell.Runs {
					stats, err := json.Marshal(r.Stats)
					if err != nil {
						return "", err
					}
					fmt.Fprintf(h, "%s/%s/%s %s\n", r.Config, r.Scheme, r.Bench, stats)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// spotCheck re-simulates seed-chosen cells of the pass with harness.RunOne
// and reports every one that differs from what the session returned.
func (b *bench) spotCheck(ctx context.Context, sess *sb.Session, specs []sb.MatrixSpec, opts sb.Options, salt uint64) []string {
	rng := b.rng(100 + salt)
	var problems []string
	for range spotChecks {
		spec := specs[rng.IntN(len(specs))]
		m, err := sess.Matrix(ctx, spec)
		if err != nil {
			return append(problems, err.Error())
		}
		cfg := m.Configs[rng.IntN(len(m.Configs))]
		kind := m.Schemes[rng.IntN(len(m.Schemes))]
		prof := m.Benches[rng.IntN(len(m.Benches))]
		name := fmt.Sprintf("%s/%s/%s", cfg.Name, kind, prof.Name)
		want, err := harness.RunOne(cfg, kind, prof, opts)
		if err != nil {
			return append(problems, err.Error())
		}
		cell, _ := m.Cell(cfg.Name, kind)
		var got *sb.Run
		for i := range cell.Runs {
			if cell.Runs[i].Bench == prof.Name {
				got = &cell.Runs[i]
			}
		}
		need(&problems, got != nil && reflect.DeepEqual(*got, want), "cell %s differs from harness.RunOne", name)
	}
	return problems
}

// farmStack is an in-process coordinator and two workers, each serving
// the farm protocol on a loopback listener.
type farmStack struct {
	coord   string
	workers []string
	servers []*http.Server
	farms   []*sb.FarmServer
	hc      *http.Client // reads /v1/stats
	wg      sync.WaitGroup
}

// startFarm starts two workers at one simulation each and a coordinator
// forwarding to them, every store in memory, and returns once all three
// answer their stats endpoint.
func startFarm(ctx context.Context) (*farmStack, error) {
	f := &farmStack{hc: &http.Client{Timeout: time.Minute}}
	serve := func(cfg sb.FarmServerConfig) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		cfg.Cache = harness.NewMemoryCache(farmStoreCells)
		fs := sb.NewFarmServer(cfg)
		hs := &http.Server{Handler: fs.Handler()}
		f.servers = append(f.servers, hs)
		f.farms = append(f.farms, fs)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = hs.Serve(ln) // returns http.ErrServerClosed on close
		}()
		return "http://" + ln.Addr().String(), nil
	}
	for range 2 {
		url, err := serve(sb.FarmServerConfig{Parallelism: 1})
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, url)
	}
	// Probing is off: worker health is tracked passively, so the request
	// counts depend on the workload alone.
	coord, err := serve(sb.FarmServerConfig{Workers: f.workers, Parallelism: 1, ProbeInterval: -1})
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = coord
	if _, err := f.snapshot(ctx); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// close stops every server and waits for them to exit. The work is done
// by then, so connections are closed outright: a graceful Shutdown would
// wait up to five seconds on any connection the client opened but never
// used.
func (f *farmStack) close() {
	for _, hs := range f.servers {
		_ = hs.Close() // only reports listener close errors, which end nothing
	}
	for _, fs := range f.farms {
		fs.Close()
	}
	f.wg.Wait()
	f.hc.CloseIdleConnections()
}

// farmSnap is the counter state of the coordinator and the workers.
type farmSnap struct {
	coord   sb.FarmStats
	workers []sb.FarmStats
}

func (f *farmStack) stats(ctx context.Context, url string) (sb.FarmStats, error) {
	var st sb.FarmStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+farm.StatsPath, nil)
	if err != nil {
		return st, err
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET %s%s: %s", url, farm.StatsPath, resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// snapshot reads GET /v1/stats from every server.
func (f *farmStack) snapshot(ctx context.Context) (farmSnap, error) {
	var s farmSnap
	var err error
	if s.coord, err = f.stats(ctx, f.coord); err != nil {
		return s, err
	}
	for _, w := range f.workers {
		st, err := f.stats(ctx, w)
		if err != nil {
			return s, err
		}
		s.workers = append(s.workers, st)
	}
	return s, nil
}

// farmDelta is the counter movement between two snapshots.
type farmDelta struct {
	coordSimulated, forwarded, coalesced, workerErrors int64
	workerComputes                                     int64
	workerSimCycles                                    uint64
}

func (s farmSnap) to(t farmSnap) farmDelta {
	d := farmDelta{
		coordSimulated: t.coord.EngineSimulated - s.coord.EngineSimulated,
		forwarded:      t.coord.Forwarded - s.coord.Forwarded,
		coalesced:      t.coord.Coalesced - s.coord.Coalesced,
		workerErrors:   t.coord.WorkerErrors - s.coord.WorkerErrors,
	}
	for i := range t.workers {
		d.workerComputes += t.workers[i].Computes - s.workers[i].Computes
		d.workerSimCycles += t.workers[i].SimCycles - s.workers[i].SimCycles
	}
	return d
}

// farmOptions are pass p's run bounds: table1 at a 4000-cycle window
// after a warmup of 1000 plus a seed- and pass-derived offset, so every
// pass asks for keys no store holds yet.
func (b *bench) farmOptions(p int) sb.Options {
	return sb.Options{
		Scale:         1,
		WarmupCycles:  1000 + 1 + (b.seed+uint64(p))%maxFarmPasses,
		MeasureCycles: 4000,
		Parallelism:   1,
	}
}

// farmSession opens a fresh RemoteCompute client session — an in-memory
// tier over the farm client in compute mode, the stack OpenCache builds —
// and renders table1. The first cell is the first streamed cell the
// memory tier receives.
func farmSession(ctx context.Context, url string, hc *http.Client, opts sb.Options, tr *tracer, kind string) (evaluation, error) {
	start := time.Now()
	sp := tr.begin("pass."+kind, 0)
	restore := tr.enter(sp)
	defer tr.end(sp)
	defer restore()
	mem := &tierCache{CellCache: harness.NewMemoryCache(0), name: "mem", tr: tr, arrivals: true}
	cache := harness.NewTieredCache(mem, farm.NewHTTPCache(url, farm.HTTPCacheOptions{Compute: true, Client: hc}))
	ev, err := evaluate(ctx, sb.NewSession(sb.SessionConfig{Options: opts, Cache: cache}), []string{"table1"}, []sb.MatrixSpec{sb.BoomSpec()}, tr, start)
	if err != nil {
		return ev, err
	}
	ev.firstCell = mem.firstArrival(start)
	tr.arrivals(mem)
	return ev, nil
}

// farmStream runs the coordinator and two workers in process. Each pass
// makes fresh client sessions: the first requests table1 at a window no
// store has seen (simulated by the workers, streamed back by the
// coordinator), the next warmPerFarm re-request it as pure reads of the
// coordinator's store. Set-up is starting the three servers and a
// warm-up session through them.
func farmStream(ctx context.Context, b *bench) error {
	transport := http.DefaultTransport.(*http.Transport).Clone()
	defer transport.CloseIdleConnections()
	plain := &http.Client{Transport: transport}
	var stack *farmStack
	for range setupReps {
		start := time.Now()
		s, err := startFarm(ctx)
		if err != nil {
			return err
		}
		if _, err := farmSession(ctx, s.coord, plain, warmupOptions(1), nil, "warmup"); err != nil {
			s.close()
			return err
		}
		b.setup = append(b.setup, time.Since(start).Seconds())
		if stack != nil {
			stack.close()
		}
		stack = s
	}
	defer stack.close()
	specs := []sb.MatrixSpec{sb.BoomSpec()}

	loop := time.Now()
	for p := 0; p < maxFarmPasses && (p == 0 || time.Since(loop) < b.budget); p++ {
		tr := b.tracerFor(p)
		coldHC, warmHC := plain, plain
		if tr != nil {
			coldHC = &http.Client{Transport: &countingTransport{base: transport, tr: tr, cold: true}}
			warmHC = &http.Client{Transport: &countingTransport{base: transport, tr: tr}}
		}
		opts := b.farmOptions(p)
		settle()
		s0, err := stack.snapshot(ctx)
		if err != nil {
			return err
		}
		cold, err := farmSession(ctx, stack.coord, coldHC, opts, tr, "cold")
		if err != nil {
			return err
		}
		s1, err := stack.snapshot(ctx)
		if err != nil {
			return err
		}
		dc := s0.to(s1)
		b.cold = append(b.cold, cold.ms)
		b.firstCell = append(b.firstCell, cold.firstCell)
		b.primary(p, cold.ms, tr)
		b.simCycles += dc.workerSimCycles
		b.simSeconds += cold.ms / 1000
		b.cells += cold.stats.Cells
		b.passSeconds += cold.ms / 1000
		if p == 0 {
			b.digest = cold.digest
			if err := b.recordModel(ctx, cold.sess); err != nil {
				return err
			}
		}
		var problems []string
		need(&problems, cold.stats.Simulated == 0, "client simulated %d cells", cold.stats.Simulated)
		need(&problems, dc.coordSimulated == 0, "coordinator simulated %d cells", dc.coordSimulated)
		need(&problems, dc.workerErrors == 0, "%d worker errors", dc.workerErrors)
		problems = append(problems, b.spotCheck(ctx, cold.sess, specs, opts, uint64(p))...)
		b.verify(fmt.Sprintf("cold session %d", p), problems)
		if err := tr.pass(ctx, cold, specs, opts); err != nil {
			return err
		}
		tr.farmCounters(dc, cold.stats.Simulated)

		for w := range warmPerFarm {
			warm, err := farmSession(ctx, stack.coord, warmHC, opts, tr, "warm")
			if err != nil {
				return err
			}
			s2, err := stack.snapshot(ctx)
			if err != nil {
				return err
			}
			dw := s1.to(s2)
			s1 = s2
			b.warm = append(b.warm, warm.ms)
			b.cells += warm.stats.Cells
			b.passSeconds += warm.ms / 1000
			problems = nil
			need(&problems, warm.text == cold.text, "rendered text differs from the cold session")
			need(&problems, warm.digest == cold.digest, "cell statistics differ from the cold session")
			need(&problems, warm.stats.Simulated == 0, "client simulated %d cells", warm.stats.Simulated)
			need(&problems, dw.coordSimulated == 0, "coordinator simulated %d cells", dw.coordSimulated)
			need(&problems, dw.forwarded == 0, "coordinator forwarded %d cells on a re-read", dw.forwarded)
			need(&problems, dw.workerErrors == 0, "%d worker errors", dw.workerErrors)
			b.verify(fmt.Sprintf("warm session %d.%d", p, w), problems)
			if err := tr.pass(ctx, warm, specs, opts); err != nil {
				return err
			}
			tr.farmCounters(dw, warm.stats.Simulated)
		}
	}
	return b.resimulate(b.farmOptions(0))
}

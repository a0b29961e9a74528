// Command perfbench is the repository benchmark. It runs one workload of
// the ShadowBinding reproduction in this process, checks every output, and
// prints each metric by name with its unit:
//
//	perfbench --workload cold-eval|warm-disk|farm-stream --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics, measured with tracing
// off. With --trace 1 it reports the per-layer metrics of a traced run and
// that run's overhead against its own untraced passes. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics; the lines before it carry the host fingerprint,
// sample counts, tail percentiles, the fail ratio with its base and the
// simulation digest. METRICS.md describes the workloads and maps each
// per-layer metric to the end-to-end metric it should move.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	sb "repro"
)

// outDir holds the benchmark's scratch cache directories while it runs and
// the span files of traced runs afterwards, relative to the working
// directory.
const outDir = ".perfbench"

// metricDef declares one reported metric; the lists below mirror
// BENCHMARK.json (TestMetricListsMatchBenchmarkJSON keeps them in step).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sim_cycles_per_s", "cycles/s", "higher", 0.25},
	{"cells_per_s", "cells/s", "higher", 0.25},
	{"cold_pass_ms_p50", "ms", "lower", 0.25},
	{"warm_pass_ms_p50", "ms", "lower", 0.25},
	{"first_cell_ms_p50", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"norm_ipc_err_mega", "ratio", "lower", 0.05},
	{"base_ipc_err", "ratio", "lower", 0.05},
}

var perLayerMetrics = []metricDef{
	{Name: "core.run_s", Unit: "s", Better: "lower"},
	{Name: "core.new_us", Unit: "us", Better: "lower"},
	{Name: "core.ns_per_sim_cycle.baseline", Unit: "ns/cycle", Better: "lower"},
	{Name: "core.ns_per_sim_cycle.stt-rename", Unit: "ns/cycle", Better: "lower"},
	{Name: "core.ns_per_sim_cycle.stt-issue", Unit: "ns/cycle", Better: "lower"},
	{Name: "core.ns_per_sim_cycle.nda", Unit: "ns/cycle", Better: "lower"},
	{Name: "core.ns_per_sim_cycle.dom", Unit: "ns/cycle", Better: "lower"},
	{Name: "core.ns_per_sim_cycle.invisispec", Unit: "ns/cycle", Better: "lower"},
	{Name: "core.ns_per_sim_cycle.small", Unit: "ns/cycle", Better: "lower"},
	{Name: "core.ns_per_sim_cycle.medium", Unit: "ns/cycle", Better: "lower"},
	{Name: "core.ns_per_sim_cycle.large", Unit: "ns/cycle", Better: "lower"},
	{Name: "core.ns_per_sim_cycle.mega", Unit: "ns/cycle", Better: "lower"},
	{Name: "core.ns_per_sim_cycle.gem5-stt", Unit: "ns/cycle", Better: "lower"},
	{Name: "core.ns_per_sim_cycle.gem5-nda", Unit: "ns/cycle", Better: "lower"},
	{Name: "core.allocs_per_sim_cycle", Unit: "allocs/cycle", Better: "lower"},
	{Name: "core.stage_events.fetch", Unit: "count", Better: "higher"},
	{Name: "core.stage_events.rename", Unit: "count", Better: "higher"},
	{Name: "core.stage_events.issue", Unit: "count", Better: "higher"},
	{Name: "core.stage_events.writeback", Unit: "count", Better: "higher"},
	{Name: "core.stage_events.vp", Unit: "count", Better: "higher"},
	{Name: "core.stage_events.commit", Unit: "count", Better: "higher"},
	{Name: "core.stage_events.squash", Unit: "count", Better: "lower"},
	{Name: "core.issued_uops", Unit: "count", Better: "higher"},
	{Name: "core.squashed_uops", Unit: "count", Better: "lower"},
	{Name: "core.taint_blocked_selects", Unit: "count", Better: "lower"},
	{Name: "core.taint_nop_slots", Unit: "count", Better: "lower"},
	{Name: "core.delayed_broadcasts", Unit: "count", Better: "lower"},
	{Name: "core.dom_delayed_loads", Unit: "count", Better: "lower"},
	{Name: "workloads.build_ms", Unit: "ms", Better: "lower"},
	{Name: "mem.l1d_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "mem.l1d_accesses", Unit: "count", Better: "lower"},
	{Name: "mem.l2_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "mem.l2_accesses", Unit: "count", Better: "lower"},
	{Name: "mem.mshr_rejects", Unit: "count", Better: "lower"},
	{Name: "mem.demand_to_dram", Unit: "count", Better: "lower"},
	{Name: "mem.prefetch_fills", Unit: "count", Better: "higher"},
	{Name: "branch.mispredict_ratio", Unit: "ratio", Better: "lower"},
	{Name: "branch.resolved", Unit: "count", Better: "higher"},
	{Name: "branch.btb_forced_nt", Unit: "count", Better: "lower"},
	{Name: "harness.key_us_p50", Unit: "us", Better: "lower"},
	{Name: "harness.mem_get_us_p50", Unit: "us", Better: "lower"},
	{Name: "harness.disk_get_us_p50", Unit: "us", Better: "lower"},
	{Name: "harness.disk_bytes_read", Unit: "bytes", Better: "lower"},
	{Name: "harness.render_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.disk_put_us_p50", Unit: "us", Better: "lower"},
	{Name: "harness.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "harness.cells", Unit: "count", Better: "higher"},
	{Name: "farm.requests.experiments", Unit: "count", Better: "lower"},
	{Name: "farm.requests.compute", Unit: "count", Better: "lower"},
	{Name: "farm.requests.get_cell", Unit: "count", Better: "lower"},
	{Name: "farm.requests.put_cell", Unit: "count", Better: "lower"},
	{Name: "farm.requests.worker_compute", Unit: "count", Better: "lower"},
	{Name: "farm.bytes_in", Unit: "bytes", Better: "lower"},
	{Name: "farm.bytes_out", Unit: "bytes", Better: "lower"},
	{Name: "farm.forwarded", Unit: "count", Better: "lower"},
	{Name: "farm.coalesced", Unit: "count", Better: "lower"},
	{Name: "farm.experiment_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "farm.cell_gap_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "farm.worker_errors", Unit: "count", Better: "lower"},
	{Name: "farm.coord_simulated", Unit: "count", Better: "lower"},
	{Name: "farm.client_simulated", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// workload names one workload and its runner.
type workload struct {
	name string
	run  func(ctx context.Context, b *bench) error
}

// workloads lists every workload, in BENCHMARK.json order.
var workloads = []workload{
	{"cold-eval", coldEval},
	{"warm-disk", warmDisk},
	{"farm-stream", farmStream},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one workload run: its inputs, its budget and everything it
// measured.
type bench struct {
	workload string
	seed     uint64
	budget   time.Duration
	workdir  string

	attempted, failed int

	setup     []float64 // seconds per set-up repetition
	cold      []float64 // ms per cold pass
	warm      []float64 // ms per warm pass
	firstCell []float64 // ms to the first cell of primary passes and probes

	simCycles   uint64  // simulated in cold passes
	simSeconds  float64 // wall time of those cold passes
	cells       int     // cells resolved by measured passes
	passSeconds float64 // wall time of those passes

	normErr, baseErr float64
	digest           string

	// Trace mode only: the primary pass time of untraced and traced
	// passes, and the per-layer collector.
	untracedMs, tracedMs []float64
	tr                   *tracer
}

// rng returns a deterministic generator for one use of the seed.
func (b *bench) rng(salt uint64) *rand.Rand {
	return rand.New(rand.NewPCG(b.seed, salt))
}

// tracerFor returns the tracer for pass i: nil with tracing off, and in
// trace mode for every other pass, so the run also times untraced passes
// to measure the overhead against.
func (b *bench) tracerFor(i int) *tracer {
	if b.tr == nil || i%2 == 0 {
		return nil
	}
	return b.tr
}

// primary records primary pass i's time for the overhead comparison; the
// first pass is left out, as it also pays the process's warm-up.
func (b *bench) primary(i int, ms float64, tr *tracer) {
	switch {
	case i == 0:
	case tr != nil:
		b.tracedMs = append(b.tracedMs, ms)
	default:
		b.untracedMs = append(b.untracedMs, ms)
	}
}

// verify counts one attempted operation, failed when it has problems.
func (b *bench) verify(op string, problems []string) {
	b.attempted++
	if len(problems) > 0 {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %s\n", op, strings.Join(problems, "; "))
	}
}

// need appends a problem when ok is false.
func need(problems *[]string, ok bool, format string, args ...any) {
	if !ok {
		*problems = append(*problems, fmt.Sprintf(format, args...))
	}
}

// experimentOrder returns every registered experiment id, permuted by the
// seed.
func (b *bench) experimentOrder() []string {
	ids := sb.ExperimentIDs()
	b.rng(1).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measurement budget in seconds")
	traceFlag := flag.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	flag.Parse()

	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload %s --seed N --seconds S --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	workdir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fatal(err)
	}
	b := &bench{
		workload: *name,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		workdir:  workdir,
	}
	if *traceFlag == 1 {
		b.tr = newTracer()
	}
	err = workloads[i].run(ctx, b)
	if rerr := os.RemoveAll(workdir); err == nil && rerr != nil {
		err = fmt.Errorf("remove work directory: %w", rerr)
	}
	if err != nil {
		fatal(err)
	}
	if err := b.report(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// report prints the text report and, last, the JSON result line.
func (b *bench) report(w io.Writer) error {
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d seconds=%g trace=%v\n", b.workload, b.seed, b.budget.Seconds(), b.tr != nil)
	fmt.Fprintf(w, "host: %s\n", hostFingerprint())
	fmt.Fprintf(w, "samples setup_s: %s\n", summary(b.setup))
	fmt.Fprintf(w, "samples cold_pass_ms: %s\n", summary(b.cold))
	fmt.Fprintf(w, "samples warm_pass_ms: %s\n", summary(b.warm))
	fmt.Fprintf(w, "samples first_cell_ms: %s\n", summary(b.firstCell))
	fmt.Fprintf(w, "fail_ratio: %s\n", ratio{int64(b.failed), int64(b.attempted)})
	fmt.Fprintf(w, "sim_digest: %s\n", b.digest)

	metrics, defs := b.endToEnd(), endToEndMetrics
	if b.tr != nil {
		metrics, defs = b.tr.metrics(b), perLayerMetrics
		fmt.Fprintf(w, "trace overhead: traced passes %s, untraced passes %s\n", summary(b.tracedMs), summary(b.untracedMs))
		b.tr.print(w)
		if err := b.tr.writeSpans(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.workload, b.seed))); err != nil {
			return err
		}
	}
	for _, d := range defs {
		m, ok := metrics[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		fmt.Fprintf(w, "metric %s = %.6g %s\n", d.Name, m.Value, m.Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// endToEnd computes the end-to-end metrics of an untraced run.
func (b *bench) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":           {median(b.setup), "s"},
		"sim_cycles_per_s":  {float64(b.simCycles) / b.simSeconds, "cycles/s"},
		"cells_per_s":       {float64(b.cells) / b.passSeconds, "cells/s"},
		"cold_pass_ms_p50":  {median(b.cold), "ms"},
		"warm_pass_ms_p50":  {median(b.warm), "ms"},
		"first_cell_ms_p50": {median(b.firstCell), "ms"},
		"peak_rss_mb":       {peakRSSMB(), "MB"},
		"norm_ipc_err_mega": {b.normErr, "ratio"},
		"base_ipc_err":      {b.baseErr, "ratio"},
	}
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostFingerprint identifies the machine a report was measured on.
func hostFingerprint() string {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("goarch=%s cpu=%q ncpu=%d go=%s", runtime.GOARCH, model, runtime.NumCPU(), runtime.Version())
}

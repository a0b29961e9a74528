// Command shadowbinding reproduces the paper's evaluation through the
// Session API: experiments are rendered lazily from content-addressed
// simulation cells, each executed at most once and — with -cache —
// persisted on disk, so a warm re-run of any experiment simulates
// nothing. It also dives into single cells, runs the Section 7 security
// check, and drives the differential fuzzer.
//
// Usage:
//
//	shadowbinding -experiment all
//	shadowbinding -experiment fig6 -measure 100000
//	shadowbinding -experiment fig7 -schemes stt-issue,nda -j 4
//	shadowbinding -experiment fig_ext                    # all schemes head-to-head
//	shadowbinding -experiment table1 -cache ~/.cache/shadowbinding   # warm runs are free
//	shadowbinding -experiment security                   # exit 1 iff a secure scheme leaks
//
// One cell — counters, TraceDoctor-style analysis and the comparison
// against baseline — or one benchmark swept over the -schemes axis:
//
//	shadowbinding -cell 548.exchange2@mega@stt-rename
//	shadowbinding -cell 548.exchange2@mega@stt-rename -trace-out cell.jsonl
//	shadowbinding -cell 505.mcf@mega -schemes stt-rename,stt-issue,nda
//	shadowbinding -list
//
// Differential fuzzing (long offline campaigns and failure replay):
//
//	shadowbinding -fuzz 100000 -j 8          # campaign: 100k random programs
//	shadowbinding -fuzz-seed 123 -fuzz-mask 0x2f   # replay one failure
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	sb "repro"
	"repro/internal/cliutil"
	"repro/internal/trace"
)

const tool = "shadowbinding"

func main() {
	experiment := flag.String("experiment", "all",
		"experiment id: all, security, or one of "+strings.Join(sb.ExperimentIDs(), ", "))
	cell := flag.String("cell", "",
		"dive into one cell, bench@config@scheme, or sweep one benchmark over -schemes, bench@config (see -list)")
	list := flag.Bool("list", false, "list benchmarks and exit")
	warmup := flag.Uint64("warmup", 8_000, "warmup cycles per run")
	measure := flag.Uint64("measure", 32_000, "measured cycles per run")
	scale := flag.Int("scale", 1, "workload iteration multiplier")
	quiet := flag.Bool("q", false, "suppress progress output")
	fuzzN := flag.Int("fuzz", 0, "run a differential fuzzing campaign of N generated programs (cross-checks every scheme against the architectural reference)")
	fuzzSeed := flag.Uint64("fuzz-seed", 1, "base seed for -fuzz; without -fuzz, replay exactly one case (pair with -fuzz-mask)")
	fuzzMask := flag.Uint64("fuzz-mask", 0, "feature mask for a single-case replay (0 = all features)")
	serveTrace := flag.String("serve-trace", "", "serve the pipeline-trace viewer for this -trace-out JSONL file")
	serveAddr := flag.String("serve-addr", "127.0.0.1:8383", "listen address for -serve-trace")
	traceHTML := flag.String("trace-html", "",
		"with -serve-trace: render the viewer page to this file and exit instead of serving")
	common := cliutil.Register(flag.CommandLine, "")
	common.RegisterTrace(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, p := range sb.Benchmarks() {
			fmt.Printf("%-18s %s\n", p.Name, p.Character)
		}
		return
	}

	opts := sb.DefaultOptions()
	opts.WarmupCycles = *warmup
	opts.MeasureCycles = *measure
	opts.Scale = *scale
	if !*quiet {
		opts.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	// One Build per cmd: scheme axis (baseline included — figures
	// normalize against it), cache stack, lazy session, SIGINT context,
	// and whole-run profiling (cell construction included — see
	// mem.Main.WriteRange for why that matters).
	h, err := common.Build(tool, opts, true)
	if err != nil {
		cliutil.Fatal(tool, err)
	}
	defer h.Close()

	fuzzFlagSet, experimentSet := false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "fuzz", "fuzz-seed", "fuzz-mask":
			fuzzFlagSet = true
		case "experiment":
			experimentSet = true
		}
	})
	if *cell != "" && (experimentSet || fuzzFlagSet) {
		cliutil.Fatal(tool, fmt.Errorf("-cell cannot be combined with -experiment or -fuzz/-fuzz-seed/-fuzz-mask"))
	}
	if fuzzFlagSet {
		if experimentSet {
			cliutil.Fatal(tool, fmt.Errorf("-experiment cannot be combined with -fuzz/-fuzz-seed/-fuzz-mask"))
		}
		runFuzz(h.Ctx, *fuzzN, *fuzzSeed, *fuzzMask, common.Parallelism, *quiet)
		return
	}

	if *serveTrace != "" {
		if *traceHTML != "" {
			page, err := sb.RenderTraceHTML(*serveTrace)
			if err != nil {
				cliutil.Fatal(tool, err)
			}
			if err := os.WriteFile(*traceHTML, page, 0o644); err != nil {
				cliutil.Fatal(tool, err)
			}
			fmt.Fprintf(os.Stderr, "%s: rendered %s to %s\n", tool, *serveTrace, *traceHTML)
			return
		}
		fmt.Fprintf(os.Stderr, "%s: serving trace viewer for %s on http://%s/\n", tool, *serveTrace, *serveAddr)
		if err := sb.ServeTrace(*serveAddr, *serveTrace); err != nil {
			cliutil.Fatal(tool, err)
		}
		return
	}
	if common.TraceOut != "" && strings.Count(*cell, "@") != 2 {
		cliutil.Fatal(tool, fmt.Errorf("-trace-out traces one cell: give it -cell bench@config@scheme"))
	}
	if *cell != "" {
		runCell(h, common, *cell)
		return
	}

	if *experiment == "security" {
		report, leaked, err := sb.SecurityReport(h.Schemes)
		if err != nil {
			cliutil.Fatal(tool, err)
		}
		fmt.Print(report)
		failIfLeaked(h, leaked)
		return
	}

	ids := []string{*experiment}
	if *experiment == "all" {
		ids = sb.ExperimentIDs()
	}
	start := time.Now()
	for _, id := range ids {
		out, err := h.Session.Experiment(h.Ctx, id)
		if err != nil {
			cliutil.Fatal(tool, err)
		}
		fmt.Println(out)
	}
	// The bench report covers the session sweep only — the security
	// check below simulates outside the cell engine.
	sweepWall := time.Since(start)
	leaked := false
	if *experiment == "all" {
		var report string
		if report, leaked, err = sb.SecurityReport(h.Schemes); err != nil {
			cliutil.Fatal(tool, err)
		}
		fmt.Println(report)
	}
	finish(h, common, "evaluation-sweep", sweepWall, h.Options.Parallelism)
	failIfLeaked(h, leaked)
}

// failIfLeaked exits 1 when a secure scheme leaked in the security check:
// the reproduction failed.
func failIfLeaked(h *cliutil.Handles, leaked bool) {
	if leaked {
		h.Close() // os.Exit skips defers; flush profiles explicitly
		cliutil.Fatal(tool, fmt.Errorf("security check failed: a secure scheme leaked"))
	}
}

// runCell serves -cell. bench@config@scheme prints one cell's headline,
// full counter set and TraceDoctor-style analysis, then its comparison
// against the baseline cell (the paper's Section 9.2 discussion); with
// -trace-out the cell is also traced. bench@config sweeps the benchmark
// over the session's scheme axis instead.
func runCell(h *cliutil.Handles, common *cliutil.Flags, cell string) {
	parts := strings.Split(cell, "@")
	if len(parts) != 2 && len(parts) != 3 {
		cliutil.Fatal(tool, fmt.Errorf("-cell wants bench@config@scheme or bench@config, got %q", cell))
	}
	cfg, err := sb.ConfigByName(parts[1])
	if err != nil {
		cliutil.Fatal(tool, err)
	}
	prof, err := sb.BenchmarkByName(parts[0])
	if err != nil {
		cliutil.Fatal(tool, err)
	}
	if len(parts) == 2 {
		sweepCell(h, common, cfg, prof)
		return
	}
	kind, err := sb.SchemeByName(parts[2])
	if err != nil {
		cliutil.Fatal(tool, err)
	}

	sess := h.Session
	start := time.Now()
	var run sb.Run
	if common.TraceOut != "" {
		// Traced runs go straight to the simulator (a cached cell cannot
		// replay its pipeline events); the recorder is observational, so
		// everything printed below matches an untraced run exactly.
		run = common.RunTraced(tool, cfg, kind, prof.Name, h.Options)
	} else if run, err = sess.Run(h.Ctx, cfg, kind, prof); err != nil {
		cliutil.Fatal(tool, err)
	}
	fmt.Printf("%s on %s under %s: IPC %.4f (%d instructions / %d cycles)\n\n",
		prof.Name, cfg.Name, kind, run.IPC, run.Insts, run.Cycles)
	fmt.Println(run.Stats)
	fmt.Println(sb.TraceOf(run))

	if kind != sb.Baseline {
		base, err := sess.Run(h.Ctx, cfg, sb.Baseline, prof)
		if err != nil {
			cliutil.Fatal(tool, err)
		}
		fmt.Println(trace.Compare(sb.TraceOf(base), sb.TraceOf(run)))
	}
	finish(h, common, "cell", time.Since(start), 1) // the two cells run sequentially
}

// sweepCell runs one benchmark under every scheme of the session's axis
// and prints a comparison table plus the per-scheme trace deltas against
// baseline.
func sweepCell(h *cliutil.Handles, common *cliutil.Flags, cfg sb.Config, prof sb.Benchmark) {
	start := time.Now()
	m, err := h.Session.Matrix(h.Ctx, sb.MatrixSpec{
		Name: "cell", Configs: []sb.Config{cfg}, Benches: []sb.Benchmark{prof},
	})
	if err != nil {
		cliutil.Fatal(tool, err)
	}

	fmt.Printf("%s on %s, %d schemes\n\n", prof.Name, cfg.Name, len(h.Schemes))
	fmt.Printf("%-12s %8s %10s\n", "scheme", "IPC", "vs base")
	for _, k := range h.Schemes {
		fmt.Printf("%-12s %8.4f %9.1f%%\n", k,
			m.MeanIPC(cfg.Name, k), 100*m.BenchNormIPC(cfg.Name, k, prof.Name))
	}
	fmt.Println()
	for _, line := range cliutil.TraceDeltaLines(m, cfg.Name, h.Schemes) {
		fmt.Println(line)
	}
	finish(h, common, "cell-sweep", time.Since(start), h.Options.Parallelism)
}

// finish emits the cache summary and the -bench-out throughput report for
// whatever the session actually simulated.
func finish(h *cliutil.Handles, common *cliutil.Flags, label string, wall time.Duration, workers int) {
	st := h.Session.Stats()
	if common.CacheEnabled() {
		cliutil.PrintCacheSummary(tool, st)
	}
	common.EmitBench(tool, label, st.Simulated, st.SimCycles, wall, workers)
}

// runFuzz drives the differential fuzzing subsystem: a campaign of n
// generated programs when n > 0, otherwise a single-case replay from a
// failure message's (seed, mask) pair.
func runFuzz(ctx context.Context, n int, seed, mask uint64, parallel int, quiet bool) {
	if n > 0 {
		var progress func(format string, args ...any)
		if !quiet {
			progress = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}
		}
		if err := sb.FuzzCampaign(ctx, seed, n, parallel, progress); err != nil {
			cliutil.Fatal(tool, err)
		}
		fmt.Printf("fuzz: %d cases passed (base seed %d, schemes %s)\n",
			n, seed, strings.Join(sb.SchemeNames(), ","))
		return
	}

	c := sb.FuzzCase{Seed: seed, Mask: sb.FuzzFeatureMask(mask)}
	if c.Mask == 0 {
		c.Mask = sb.FuzzFeatAll
	}
	if err := sb.ReplayFuzzCase(c); err != nil {
		cliutil.Fatal(tool, err)
	}
	fmt.Printf("fuzz: case %v passed on %s (schemes %s)\n",
		c, sb.FuzzConfigForCase(c).Name, strings.Join(sb.SchemeNames(), ","))
}

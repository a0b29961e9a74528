package harness

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/workloads"
)

// CellKey returns the content-addressed key of one (job, options) cell
// under the default simulator version stamp — the identity every farm
// process derives for the job, and the one streamed experiment cells are
// validated against on the way back.
func CellKey(job CellJob, opts Options) string {
	return CellFingerprint(core.SimVersion, job.Config, job.Scheme, job.Bench, opts)
}

// ExperimentJobWire is the serializable form of one experiment request —
// what the farm protocol (internal/farm) posts to its experiment endpoint.
// It flattens a MatrixSpec to everything that participates in the cell
// fingerprints: configurations in full, schemes by registered name (stable
// across kind renumbering, like the fingerprint and the on-disk entries),
// workload profiles in full, and the result-affecting option fields.
// Parallelism and Progress never cross the wire: they change wall-clock
// behaviour on whichever process simulates, never results. The receiver
// enumerates the cross product in the canonical order (config-major, then
// scheme, then benchmark) and arrives at exactly the per-cell keys the
// sender derives. Cells optionally narrows the request to a subset of
// that enumeration — how a coordinator hands each worker its share of an
// experiment as one sub-stream — without changing any cell's key. A
// single cell travels the same way, as an experiment of one.
type ExperimentJobWire struct {
	Name    string              `json:"name"`
	Configs []core.Config       `json:"configs"`
	Schemes []string            `json:"schemes"`
	Benches []workloads.Profile `json:"benches"`
	// Cells lists strictly ascending indices into the canonical
	// enumeration; empty means every cell.
	Cells   []int  `json:"cells,omitempty"`
	Scale   int    `json:"scale"`
	Warmup  uint64 `json:"warmup"`
	Measure uint64 `json:"measure"`
}

// maxWireCells bounds the cross product one experiment request may ask a
// server to enumerate — the full paper evaluation is 756 cells, so 8192
// is generous headroom, not a constraint.
const maxWireCells = 8192

// WireExperiment flattens a resolved spec (Schemes filled — the session
// resolves its scheme axis before wiring) and its run bounds.
func WireExperiment(spec MatrixSpec, opts Options) ExperimentJobWire {
	w := WireJobs(enumerateJobs(spec.Configs, spec.Schemes, spec.Benches), opts)
	w.Name = spec.Name
	return w
}

// WireJobs flattens an arbitrary cell set: its axes are the distinct
// configurations, schemes and benchmarks of jobs in order of first
// appearance, and Cells picks the jobs out of their cross product (left
// empty when the jobs are the whole product). A repeated job is sent once.
// A single job is named bench@config@scheme, a larger set by its size.
func WireJobs(jobs []CellJob, opts Options) ExperimentJobWire {
	w := ExperimentJobWire{
		Name:    fmt.Sprintf("%d cells", len(jobs)),
		Scale:   max(opts.Scale, 1), // CellFingerprint and RunOne clamp the same way
		Warmup:  opts.WarmupCycles,
		Measure: opts.MeasureCycles,
	}
	cfgIdx := map[core.Config]int{}
	kindIdx := map[core.SchemeKind]int{}
	benchIdx := map[workloads.Profile]int{}
	for _, j := range jobs {
		if _, ok := cfgIdx[j.Config]; !ok {
			cfgIdx[j.Config] = len(w.Configs)
			w.Configs = append(w.Configs, j.Config)
		}
		if _, ok := kindIdx[j.Scheme]; !ok {
			kindIdx[j.Scheme] = len(w.Schemes)
			w.Schemes = append(w.Schemes, j.Scheme.String())
		}
		if _, ok := benchIdx[j.Bench]; !ok {
			benchIdx[j.Bench] = len(w.Benches)
			w.Benches = append(w.Benches, j.Bench)
		}
	}
	cells := make([]int, 0, len(jobs))
	for _, j := range jobs {
		i := (cfgIdx[j.Config]*len(w.Schemes)+kindIdx[j.Scheme])*len(w.Benches) + benchIdx[j.Bench]
		cells = append(cells, i)
	}
	slices.Sort(cells)
	cells = slices.Compact(cells)
	if len(cells) < len(w.Configs)*len(w.Schemes)*len(w.Benches) {
		w.Cells = cells
	}
	if len(jobs) == 1 {
		w.Name = fmt.Sprintf("%s@%s@%s", jobs[0].Bench.Name, jobs[0].Config.Name, jobs[0].Scheme)
	}
	return w
}

// Resolve validates the wire form and enumerates its cell jobs in the
// canonical order. Scheme names must resolve in this process's registry
// and configurations must pass structural validation — a request from a
// binary with a different scheme roster or a corrupted body is an error
// here, not a crash inside the simulator — and a degenerate or oversized
// cross product is an error, never a runaway enumeration in the server.
func (w ExperimentJobWire) Resolve() ([]CellJob, Options, error) {
	if len(w.Configs) == 0 || len(w.Schemes) == 0 || len(w.Benches) == 0 {
		return nil, Options{}, fmt.Errorf(
			"harness: wire experiment %q: empty axis (%d configs × %d schemes × %d benches)",
			w.Name, len(w.Configs), len(w.Schemes), len(w.Benches))
	}
	if n := len(w.Configs) * len(w.Schemes) * len(w.Benches); n > maxWireCells {
		return nil, Options{}, fmt.Errorf("harness: wire experiment %q: %d cells exceeds the %d-cell limit",
			w.Name, n, maxWireCells)
	}
	schemes := make([]core.SchemeKind, len(w.Schemes))
	for i, name := range w.Schemes {
		kind, ok := core.SchemeKindByName(name)
		if !ok {
			return nil, Options{}, fmt.Errorf("harness: wire experiment %q: unknown scheme %q (known: %s)",
				w.Name, name, strings.Join(core.SchemeNames(), ", "))
		}
		schemes[i] = kind
	}
	for i := range w.Configs {
		if err := w.Configs[i].Validate(); err != nil {
			return nil, Options{}, fmt.Errorf("harness: wire experiment %q: %w", w.Name, err)
		}
	}
	for _, p := range w.Benches {
		if p.Name == "" {
			return nil, Options{}, fmt.Errorf("harness: wire experiment %q: empty workload profile", w.Name)
		}
	}
	if w.Measure == 0 {
		return nil, Options{}, fmt.Errorf("harness: wire experiment %q: zero measurement window", w.Name)
	}
	opts := Options{Scale: max(w.Scale, 1), WarmupCycles: w.Warmup, MeasureCycles: w.Measure}
	if len(w.Cells) == 0 {
		return enumerateJobs(w.Configs, schemes, w.Benches), opts, nil
	}
	ns, nb := len(schemes), len(w.Benches)
	jobs := make([]CellJob, len(w.Cells))
	for k, i := range w.Cells {
		if i < 0 || i >= len(w.Configs)*ns*nb || (k > 0 && i <= w.Cells[k-1]) {
			return nil, Options{}, fmt.Errorf(
				"harness: wire experiment %q: cell index %d at position %d is out of range [0, %d) or not strictly ascending",
				w.Name, i, k, len(w.Configs)*ns*nb)
		}
		// The canonical enumeration is config-major, then scheme, then
		// benchmark (enumerateJobs).
		jobs[k] = CellJob{Config: w.Configs[i/(ns*nb)], Scheme: schemes[i/nb%ns], Bench: w.Benches[i%nb]}
	}
	return jobs, opts, nil
}

package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

// syntheticRecords builds a tiny hand-written trace: two committed uops,
// one squashed, with a DoM park on the load.
func syntheticRecords() (Meta, []Record) {
	meta := Meta{Bench: "unit", Config: "mega", Scheme: "dom"}
	return meta, []Record{
		{Cycle: 1, Seq: 1, PC: 0, Op: "addi", Stage: "fetch", Spec: true},
		{Cycle: 5, Seq: 1, PC: 0, Op: "addi", Stage: "rename", Spec: true},
		{Cycle: 1, Seq: 2, PC: 1, Op: "lw", Stage: "fetch", Spec: true},
		{Cycle: 5, Seq: 2, PC: 1, Op: "lw", Stage: "rename", Spec: true},
		{Cycle: 6, Seq: 1, PC: 0, Op: "addi", Stage: "issue", Spec: true},
		{Cycle: 7, Seq: 2, PC: 1, Op: "lw", Stage: "issue", Spec: true, Annot: "dom-park"},
		{Cycle: 7, Seq: 1, PC: 0, Op: "addi", Stage: "writeback", Spec: true},
		{Cycle: 8, Seq: 1, PC: 0, Op: "addi", Stage: "commit"},
		{Cycle: 9, Seq: 2, PC: 1, Op: "lw", Stage: "issue", Spec: true, Annot: "l1-hit"},
		{Cycle: 12, Seq: 2, PC: 1, Op: "lw", Stage: "writeback", Spec: true, Annot: "l1-hit"},
		{Cycle: 13, Seq: 2, PC: 1, Op: "lw", Stage: "commit"},
		{Cycle: 13, Seq: 3, PC: 2, Op: "beq", Stage: "rename", Spec: true},
		{Cycle: 14, Seq: 3, PC: 2, Op: "beq", Stage: "squash", Spec: true},
	}
}

func TestAnalyzeSynthetic(t *testing.T) {
	meta, recs := syntheticRecords()
	a := Analyze(meta, recs)
	if a.Commits != 2 || a.Squashes != 1 {
		t.Errorf("commits/squashes = %d/%d, want 2/1", a.Commits, a.Squashes)
	}
	if a.Uops != 3 {
		t.Errorf("uops = %d, want 3", a.Uops)
	}
	if a.MinCycle != 1 || a.MaxCycle != 14 {
		t.Errorf("cycle span = %d..%d, want 1..14", a.MinCycle, a.MaxCycle)
	}
	if a.PeakInFlight != 2 {
		t.Errorf("peak in-flight = %d, want 2", a.PeakInFlight)
	}
	// The lw parked at cycle 7 and issued for real at 9: the rename→issue
	// latency must use the real issue (9-5=4), not the park attempt. The
	// squashed beq never issued, so only two uops contribute.
	ri := a.Hists[1]
	if ri.Count != 2 || ri.Max != 4 {
		t.Errorf("rename→issue hist: count %d max %d, want 2/4", ri.Count, ri.Max)
	}
	if len(a.Delays) != 1 || a.Delays[0].Name != "dom-park" || a.Delays[0].Total != 1 {
		t.Errorf("delay series = %+v, want one dom-park event", a.Delays)
	}
	var annots []string
	for _, ac := range a.AnnotCounts {
		annots = append(annots, ac.Annot)
	}
	if strings.Join(annots, ",") != "dom-park,l1-hit" {
		t.Errorf("annot counts = %v", annots)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a := Analyze(Meta{}, nil)
	if a.Records != 0 || a.Uops != 0 || len(a.Occupancy) != 0 {
		t.Errorf("empty analysis not empty: %+v", a)
	}
	if _, err := RenderHTML(a); err != nil {
		t.Errorf("rendering an empty analysis: %v", err)
	}
}

// TestAnalyzeFullCycleRange: a trace whose records span cycle 0 to
// 2^64-1 has a span that does not fit in a uint64; binning must still
// stay in range.
func TestAnalyzeFullCycleRange(t *testing.T) {
	a := Analyze(Meta{}, []Record{
		{Cycle: 0, Seq: 1, Op: "lw", Stage: "rename", Annot: "dom-park"},
		{Cycle: math.MaxUint64, Seq: 1, Op: "lw", Stage: "commit", Annot: "dom-park"},
	})
	if a.MinCycle != 0 || a.MaxCycle != math.MaxUint64 {
		t.Fatalf("cycle span = %d..%d", a.MinCycle, a.MaxCycle)
	}
	if n := len(a.Occupancy); n < 2 || n > occupancyBins {
		t.Errorf("occupancy bins = %d, want 2..%d", n, occupancyBins)
	}
	if len(a.Delays) != 1 || a.Delays[0].Total != 2 {
		t.Errorf("delay series = %+v, want two dom-park events", a.Delays)
	}
	if _, err := RenderHTML(a); err != nil {
		t.Errorf("rendering: %v", err)
	}
}

// TestRenderHTML renders the viewer for a real traced cell and asserts
// the page structure: the viewer marker, all three panes, the data
// tables, and no leaked NaN geometry.
func TestRenderHTML(t *testing.T) {
	meta, recs, _ := traceCell(t, core.KindDoM, "505.mcf")
	page, err := RenderHTML(Analyze(meta, recs))
	if err != nil {
		t.Fatal(err)
	}
	html := string(page)
	for _, want := range []string{
		`id="trace-viewer"`,
		`data-chart="occ"`,
		`data-chart="delays"`,
		"Stage-to-stage latency",
		"Scheme-inserted delays",
		"dom-park",
		"Data table",
		"505.mcf",
		"prefers-color-scheme: dark",
	} {
		if !strings.Contains(html, want) {
			t.Errorf("viewer page missing %q", want)
		}
	}
	for _, bad := range []string{"NaN", "Infinity", "<no value>"} {
		if strings.Contains(html, bad) {
			t.Errorf("viewer page contains %q", bad)
		}
	}
}

func TestBucketLabels(t *testing.T) {
	if got := BucketLabel(0); got != "1" {
		t.Errorf("bucket 0 = %q", got)
	}
	if got := BucketLabel(4); got != "5–6" {
		t.Errorf("bucket 4 = %q", got)
	}
	if got := BucketLabel(len(latencyBucketEdges)); got != "> 512" {
		t.Errorf("tail bucket = %q", got)
	}
	if b := bucketOf(1); b != 0 {
		t.Errorf("bucketOf(1) = %d", b)
	}
	if b := bucketOf(513); b != len(latencyBucketEdges) {
		t.Errorf("bucketOf(513) = %d", b)
	}
}

// encodeTrace renders meta and records as the JSONL DecodeAll reads.
func encodeTrace(t testing.TB, meta Meta, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(struct {
		Meta Meta `json:"meta"`
	}{meta}); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// FuzzTraceDecodeAll: arbitrary bytes through DecodeAll, then Analyze and
// the viewer, never panic, and an analysis stays within its bin budget.
func FuzzTraceDecodeAll(f *testing.F) {
	meta, recs := syntheticRecords()
	f.Add(encodeTrace(f, meta, recs))
	f.Add(encodeTrace(f, Meta{Scheme: "dom"}, []Record{
		{Cycle: 0, Seq: 1, Op: "lw", Stage: "rename", Annot: "dom-park"},
		{Cycle: math.MaxUint64, Seq: 1, Op: "lw", Stage: "commit"},
	}))
	f.Add(encodeTrace(f, meta, nil))
	f.Add([]byte(`{"meta":{"bench":"x"}}` + "\n" + `not json` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		meta, recs, err := DecodeAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		a := Analyze(meta, recs)
		if a.Records != len(recs) || len(a.Occupancy) > occupancyBins {
			t.Fatalf("analysis of %d records: %d records, %d bins", len(recs), a.Records, len(a.Occupancy))
		}
		if _, err := RenderHTML(a); err != nil {
			t.Fatalf("render: %v", err)
		}
	})
}

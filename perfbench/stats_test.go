package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
)

func TestMedianAndQuantiles(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{5}, 0.9, 5},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 1, 5},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{10, 20}, 0.75, 17.5},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %g) = %g, want %g", c.xs, c.q, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if !slices.Equal(xs, []float64{3, 1, 2}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n       int
		wantPct float64
		wantOK  bool
	}{
		{0, 0, false},
		{11, 0, false},
		{99, 0, false},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		pct, v, ok := tail(seq(c.n))
		if ok != c.wantOK || pct != c.wantPct {
			t.Errorf("tail(n=%d) = p%g ok=%v, want p%g ok=%v", c.n, pct, ok, c.wantPct, c.wantOK)
			continue
		}
		if ok && v != quantile(seq(c.n), pct/100) {
			t.Errorf("tail(n=%d) value %g, want the p%g quantile", c.n, v, pct)
		}
	}
}

func TestFailRatioCarriesItsBase(t *testing.T) {
	if got := (ratio{0, 24}).String(); got != "0 (0/24)" {
		t.Errorf("fail ratio = %q", got)
	}
	if got := (ratio{1, 4}).String(); got != "0.25 (1/4)" {
		t.Errorf("fail ratio = %q", got)
	}
	if v := (ratio{3, 0}).value(); v != 0 {
		t.Errorf("empty base gives %g, want 0", v)
	}
}

func TestSummaryReportsTailOnlyWhenSupported(t *testing.T) {
	if got := summary([]float64{1, 2, 3}); got != "n=3 p50=2 q1=1.5 q3=2.5" {
		t.Errorf("summary = %q", got)
	}
	if got := summary(nil); got != "n=0" {
		t.Errorf("summary = %q", got)
	}
	xs := make([]float64, 100)
	if got := summary(xs); got != "n=100 p50=0 q1=0 q3=0 p90=0" {
		t.Errorf("summary = %q", got)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metrics the program prints
// in step with the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spec.EndToEnd, endToEndMetrics) {
		t.Errorf("end_to_end metrics differ:\nBENCHMARK.json %v\nprogram        %v", spec.EndToEnd, endToEndMetrics)
	}
	if !slices.Equal(spec.PerLayer, perLayerMetrics) {
		t.Errorf("per_layer metrics differ:\nBENCHMARK.json %v\nprogram        %v", spec.PerLayer, perLayerMetrics)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads differ: BENCHMARK.json %v, program %v", names, workloadNames())
	}
}

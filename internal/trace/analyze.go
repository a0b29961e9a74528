package trace

import "sort"

// Trace analysis: digests a decoded JSONL trace into the aggregates the
// viewer renders — pipeline occupancy over time, per-stage-transition
// latency histograms, and the per-scheme delay-insertion timeline.

// occupancyBins is the number of time bins for the occupancy and delay
// timelines — enough for a dense curve, few enough to stay readable.
const occupancyBins = 240

// latencyBucketEdges are the inclusive upper edges of the latency
// histogram buckets (cycles); a final open bucket catches the tail.
var latencyBucketEdges = []uint64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512}

// transitions are the stage-to-stage latencies the histograms measure.
var transitions = []string{
	"fetch → rename",
	"rename → issue",
	"issue → writeback",
	"writeback → commit",
}

// delayCategories are the scheme delay-insertion annotations shown on the
// event timeline (at most four categorical series — the palette cap).
var delayCategories = []string{"dom-park", "exposure", "nda-withheld", "stt-nop"}

// BinPoint is one time bin of a per-cycle aggregate.
type BinPoint struct {
	Cycle uint64  // bin start cycle
	Value float64 // mean (occupancy) or count (delay events)
}

// LatencyHist is one stage-transition latency histogram.
type LatencyHist struct {
	Name    string   // e.g. "rename → issue"
	Buckets []uint64 // counts; Buckets[i] covers (edge[i-1], edge[i]], last is open
	Count   uint64
	Mean    float64
	Max     uint64
}

// DelaySeries is one scheme-delay category's binned event counts.
type DelaySeries struct {
	Name  string
	Total uint64
	Bins  []BinPoint
}

// Analysis is everything the viewer needs, precomputed.
type Analysis struct {
	Meta     Meta
	Records  int
	Uops     int
	MinCycle uint64
	MaxCycle uint64
	BinWidth uint64

	Commits  uint64
	Squashes uint64

	StageCounts []StageCount
	AnnotCounts []AnnotCount

	Occupancy    []BinPoint
	PeakInFlight int
	Hists        []LatencyHist
	Delays       []DelaySeries
}

// StageCount is one stage's event total (ordered fetch→squash).
type StageCount struct {
	Stage string
	Count uint64
}

// AnnotCount is one annotation's total across the trace.
type AnnotCount struct {
	Annot string
	Count uint64
}

// uopTimes tracks the first cycle each transition saw a given uop.
type uopTimes struct {
	fetch, rename, issue, writeback, commit uint64
	hasFetch, hasRename, hasIssue, hasWB    bool
	hasCommit                               bool
}

// Analyze digests decoded trace records into an Analysis.
func Analyze(meta Meta, recs []Record) Analysis {
	a := Analysis{Meta: meta, Records: len(recs)}
	if len(recs) == 0 {
		return a
	}

	a.MinCycle, a.MaxCycle = recs[0].Cycle, recs[0].Cycle
	for i := range recs {
		c := recs[i].Cycle
		if c < a.MinCycle {
			a.MinCycle = c
		}
		if c > a.MaxCycle {
			a.MaxCycle = c
		}
	}
	// The span is MaxCycle-MinCycle+1, which wraps to 0 for a trace that
	// covers all 2^64 cycles; ceil(span/n) is computed as (span-1)/n + 1.
	spanMinus1 := a.MaxCycle - a.MinCycle
	a.BinWidth = spanMinus1/occupancyBins + 1
	nBins := int(spanMinus1/a.BinWidth) + 1
	binOf := func(cycle uint64) int {
		b := int((cycle - a.MinCycle) / a.BinWidth)
		if b >= nBins {
			b = nBins - 1
		}
		return b
	}

	stageCounts := map[string]uint64{}
	annotCounts := map[string]uint64{}
	delayBins := map[string][]uint64{}
	for _, cat := range delayCategories {
		delayBins[cat] = make([]uint64, nBins)
	}

	// Occupancy: rename enters a uop into the backend; commit or squash
	// removes it. Rename/commit/squash records appear in non-decreasing
	// cycle order in the file, so a single pass tracks the live count.
	occSum := make([]float64, nBins)
	occN := make([]uint64, nBins)
	inFlight := 0

	times := map[uint64]*uopTimes{}
	for i := range recs {
		r := &recs[i]
		stageCounts[r.Stage]++
		if r.Annot != "" {
			for _, name := range splitAnnots(r.Annot) {
				annotCounts[name]++
				if bins, ok := delayBins[name]; ok {
					bins[binOf(r.Cycle)]++
				}
			}
		}

		ut := times[r.Seq]
		if ut == nil {
			ut = &uopTimes{}
			times[r.Seq] = ut
		}
		switch r.Stage {
		case "fetch":
			if !ut.hasFetch {
				ut.fetch, ut.hasFetch = r.Cycle, true
			}
		case "rename":
			if !ut.hasRename {
				ut.rename, ut.hasRename = r.Cycle, true
			}
			inFlight++
			if inFlight > a.PeakInFlight {
				a.PeakInFlight = inFlight
			}
			b := binOf(r.Cycle)
			occSum[b] += float64(inFlight)
			occN[b]++
		case "issue":
			// A park or nop record is a failed attempt, not an issue.
			if r.Annot == "" || !hasDelayAnnot(r.Annot) {
				if !ut.hasIssue {
					ut.issue, ut.hasIssue = r.Cycle, true
				}
			}
		case "writeback":
			if r.Part == "" && !ut.hasWB {
				ut.writeback, ut.hasWB = r.Cycle, true
			}
		case "commit":
			a.Commits++
			ut.commit, ut.hasCommit = r.Cycle, true
			fallthrough
		case "squash":
			if r.Stage == "squash" {
				a.Squashes++
			}
			if inFlight > 0 {
				inFlight--
			}
			b := binOf(r.Cycle)
			occSum[b] += float64(inFlight)
			occN[b]++
		}
	}
	a.Uops = len(times)

	a.Occupancy = make([]BinPoint, nBins)
	last := 0.0
	for b := 0; b < nBins; b++ {
		v := last
		if occN[b] > 0 {
			v = occSum[b] / float64(occN[b])
			last = v
		}
		a.Occupancy[b] = BinPoint{Cycle: a.MinCycle + uint64(b)*a.BinWidth, Value: v}
	}

	// Latency histograms over the four canonical transitions.
	a.Hists = make([]LatencyHist, len(transitions))
	for i, name := range transitions {
		a.Hists[i] = LatencyHist{Name: name, Buckets: make([]uint64, len(latencyBucketEdges)+1)}
	}
	addLat := func(h *LatencyHist, from, to uint64) {
		if to < from {
			return
		}
		d := to - from
		h.Count++
		h.Mean += (float64(d) - h.Mean) / float64(h.Count)
		if d > h.Max {
			h.Max = d
		}
		h.Buckets[bucketOf(d)]++
	}
	for _, ut := range times {
		if ut.hasFetch && ut.hasRename {
			addLat(&a.Hists[0], ut.fetch, ut.rename)
		}
		if ut.hasRename && ut.hasIssue {
			addLat(&a.Hists[1], ut.rename, ut.issue)
		}
		if ut.hasIssue && ut.hasWB {
			addLat(&a.Hists[2], ut.issue, ut.writeback)
		}
		if ut.hasWB && ut.hasCommit {
			addLat(&a.Hists[3], ut.writeback, ut.commit)
		}
	}

	for _, cat := range delayCategories {
		s := DelaySeries{Name: cat, Bins: make([]BinPoint, nBins)}
		for b, n := range delayBins[cat] {
			s.Total += n
			s.Bins[b] = BinPoint{Cycle: a.MinCycle + uint64(b)*a.BinWidth, Value: float64(n)}
		}
		if s.Total > 0 {
			a.Delays = append(a.Delays, s)
		}
	}

	a.StageCounts = orderedCounts(stageCounts, []string{"fetch", "rename", "issue", "writeback", "vp", "commit", "squash"})
	names := make([]string, 0, len(annotCounts))
	for k := range annotCounts {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		a.AnnotCounts = append(a.AnnotCounts, AnnotCount{Annot: k, Count: annotCounts[k]})
	}
	return a
}

// bucketOf maps a latency to its histogram bucket index.
func bucketOf(d uint64) int {
	for i, edge := range latencyBucketEdges {
		if d <= edge {
			return i
		}
	}
	return len(latencyBucketEdges)
}

// BucketLabel renders bucket i's range for axis labels.
func BucketLabel(i int) string {
	if i >= len(latencyBucketEdges) {
		return "> 512"
	}
	lo := uint64(0)
	if i > 0 {
		lo = latencyBucketEdges[i-1]
	}
	hi := latencyBucketEdges[i]
	if hi == lo+1 {
		return itoa(hi)
	}
	return itoa(lo+1) + "–" + itoa(hi)
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// splitAnnots splits a '|'-joined annotation set without regexp.
func splitAnnots(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '|' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}

// hasDelayAnnot reports whether the annotation set contains a failed-issue
// marker (a DoM park or an STT nop — the uop did not actually issue).
func hasDelayAnnot(annot string) bool {
	for _, name := range splitAnnots(annot) {
		if name == "dom-park" || name == "stt-nop" {
			return true
		}
	}
	return false
}

// orderedCounts renders a count map in a fixed key order, skipping zeros.
func orderedCounts(m map[string]uint64, order []string) []StageCount {
	var out []StageCount
	for _, k := range order {
		if m[k] > 0 {
			out = append(out, StageCount{Stage: k, Count: m[k]})
		}
	}
	return out
}

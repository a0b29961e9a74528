package core

import "testing"

// recorderBudget bounds the recorder-test runs; hashedRun (the shared
// cell runner in commitstream_test.go) does the hashing.
const recorderBudget = 10_000

// countingRecorder tallies stage events, annotations and the
// security-invariant fields without inspecting the run.
type countingRecorder struct {
	total    uint64
	byStage  [numStages]uint64
	byAnnot  [numAnnots]uint64
	badStage int

	issues, broadcasts int
	transmitters       int // successful issues of transmitter parts
	taintedTransmit    int
	specBroadcasts     int
	specCommits        int

	cacheAccesses int
	specMSHRs     int // speculative accesses occupying an MSHR
	specVisible   int // speculative accesses that were not invisible
	exposures     int
}

func (r *countingRecorder) OnStage(ev StageEvent) {
	r.total++
	if int(ev.Stage) >= int(numStages) {
		r.badStage++
		return
	}
	r.byStage[ev.Stage]++
	for i := 0; i < numAnnots; i++ {
		if ev.Annot&(1<<i) != 0 {
			r.byAnnot[i]++
		}
	}
	if ev.Stage == StageIssue && ev.Annot&(AnnotDoMParked|AnnotSTTNopped) == 0 {
		r.issues++
	}
	if ev.Transmitter {
		r.transmitters++
		if ev.Tainted {
			r.taintedTransmit++
		}
	}
	if ev.Stage == StageCommit && ev.Speculative {
		r.specCommits++
	}
	if ev.Broadcast {
		r.broadcasts++
		if ev.Speculative {
			r.specBroadcasts++
		}
	}
	if ev.CacheAccess {
		r.cacheAccesses++
		invisible := ev.Annot&AnnotInvisible != 0
		if ev.Speculative && !invisible && ev.Annot&AnnotL1Hit == 0 {
			r.specMSHRs++
		}
		if ev.Speculative && !invisible {
			r.specVisible++
		}
		if ev.Annot&AnnotExposure != 0 {
			r.exposures++
		}
	}
}

// TestRecorderIsObservational pins the recorder API's core contract:
// attaching a recorder must not perturb timing or architectural results —
// the commit stream and cycle count with a recorder are byte-identical to
// a run without one, for every registered scheme — and every event kind
// the schemes' invariants are stated over must actually be reported.
func TestRecorderIsObservational(t *testing.T) {
	cfg := MegaConfig()
	for _, kind := range SchemeKinds() {
		rec := &countingRecorder{}
		withHash, withCycles := hashedRun(t, cfg, kind, "505.mcf", recorderBudget, rec)
		bareHash, bareCycles := hashedRun(t, cfg, kind, "505.mcf", recorderBudget, nil)
		if withHash != bareHash || withCycles != bareCycles {
			t.Errorf("%s: recorder perturbed the run: hash %s/%s cycles %d/%d",
				kind, withHash, bareHash, withCycles, bareCycles)
		}
		if rec.badStage > 0 {
			t.Errorf("%s: %d events with out-of-range stage", kind, rec.badStage)
		}
		for _, st := range []Stage{StageFetch, StageRename, StageIssue, StageWriteback, StageCommit} {
			if rec.byStage[st] == 0 {
				t.Errorf("%s: no %s events recorded", kind, st)
			}
		}
		// Rename admits a uop; commit or squash retires it. The counts
		// can differ only by the uops still in flight at the cycle cap.
		entered := rec.byStage[StageRename]
		left := rec.byStage[StageCommit] + rec.byStage[StageSquash]
		if left > entered {
			t.Errorf("%s: %d commits+squashes but only %d renames", kind, left, entered)
		}
		if entered-left > uint64(cfg.ROBSize) {
			t.Errorf("%s: %d uops unaccounted for (> ROB size %d)", kind, entered-left, cfg.ROBSize)
		}
		if rec.transmitters == 0 {
			t.Errorf("%s: no transmitter issues recorded", kind)
		}
		if rec.broadcasts == 0 {
			t.Errorf("%s: no load broadcasts recorded", kind)
		}
		if rec.cacheAccesses == 0 {
			t.Errorf("%s: no cache accesses recorded", kind)
		}
	}
}

// TestCommitEventsAreNonSpeculative: commit is the definitive visibility
// point, so no commit event may report Speculative — even for a uop the
// visibility-point walk had not reached yet when commit ran ahead of it.
func TestCommitEventsAreNonSpeculative(t *testing.T) {
	cfg := MegaConfig()
	for _, kind := range SchemeKinds() {
		rec := &countingRecorder{}
		hashedRun(t, cfg, kind, "505.mcf", recorderBudget, rec)
		if rec.byStage[StageCommit] == 0 {
			t.Fatalf("%s: no commit events recorded", kind)
		}
		if rec.specCommits > 0 {
			t.Errorf("%s: %d of %d commit events flagged speculative",
				kind, rec.specCommits, rec.byStage[StageCommit])
		}
	}
}

// TestRecorderSecurityInvariantsOnProxies asserts the schemes'
// invariants on a real proxy workload, not just generated programs: STT
// never issues a tainted transmitter, NDA never releases a speculative
// load broadcast, DoM never lets a speculative load occupy an MSHR, and
// InvisiSpec keeps every speculative access invisible.
func TestRecorderSecurityInvariantsOnProxies(t *testing.T) {
	cfg := MegaConfig()
	for _, kind := range []SchemeKind{KindSTTRename, KindSTTIssue} {
		rec := &countingRecorder{}
		hashedRun(t, cfg, kind, "505.mcf", recorderBudget, rec)
		if rec.taintedTransmit > 0 {
			t.Errorf("%s: %d tainted transmitters issued", kind, rec.taintedTransmit)
		}
	}
	nda := &countingRecorder{}
	hashedRun(t, cfg, KindNDA, "505.mcf", recorderBudget, nda)
	if nda.specBroadcasts > 0 {
		t.Errorf("nda: %d speculative load broadcasts released", nda.specBroadcasts)
	}

	// DoM: no speculative load may occupy an MSHR past the L1.
	dom := &countingRecorder{}
	hashedRun(t, cfg, KindDoM, "505.mcf", recorderBudget, dom)
	if dom.specMSHRs > 0 {
		t.Errorf("dom: %d speculative MSHR occupancies", dom.specMSHRs)
	}
	// InvisiSpec: every speculative access is invisible; exposures happen.
	inv := &countingRecorder{}
	hashedRun(t, cfg, KindInvisiSpec, "505.mcf", recorderBudget, inv)
	if inv.specVisible > 0 {
		t.Errorf("invisispec: %d speculative accesses reached the cache side-effect path", inv.specVisible)
	}
	if inv.exposures == 0 {
		t.Error("invisispec: no exposure re-accesses observed on a memory-bound proxy")
	}

	// The baseline is the positive control: the same counters must see it
	// speculate, or the checks above could pass vacuously.
	base := &countingRecorder{}
	hashedRun(t, cfg, KindBaseline, "505.mcf", recorderBudget, base)
	if base.taintedTransmit > 0 {
		t.Errorf("baseline: %d tainted transmitters (baseline tracks no taint)", base.taintedTransmit)
	}
	if base.specBroadcasts == 0 || base.specMSHRs == 0 {
		t.Errorf("baseline: %d speculative broadcasts, %d speculative MSHR occupancies; want both > 0",
			base.specBroadcasts, base.specMSHRs)
	}
}

// TestRecorderSchemeAnnotations asserts each scheme's delay insertions
// are visible in the trace on a memory-bound proxy: DoM parks, InvisiSpec
// invisible loads and exposures, NDA withheld/released broadcasts, and
// STT-Issue nop slots.
func TestRecorderSchemeAnnotations(t *testing.T) {
	cfg := MegaConfig()
	annotIdx := func(name string) int {
		for i, n := range annotNames {
			if n == name {
				return i
			}
		}
		t.Fatalf("unknown annotation %q", name)
		return -1
	}
	cases := []struct {
		kind   SchemeKind
		annots []string
	}{
		{KindDoM, []string{"dom-park", "dom-resume"}},
		{KindInvisiSpec, []string{"invisible", "exposure"}},
		{KindNDA, []string{"nda-withheld", "nda-release"}},
		{KindSTTIssue, []string{"stt-nop"}},
	}
	for _, tc := range cases {
		rec := &countingRecorder{}
		hashedRun(t, cfg, tc.kind, "505.mcf", recorderBudget, rec)
		for _, name := range tc.annots {
			if rec.byAnnot[annotIdx(name)] == 0 {
				t.Errorf("%s: no %s annotations recorded", tc.kind, name)
			}
		}
	}
	// The baseline inserts no scheme delays: none of the scheme
	// annotations may appear.
	rec := &countingRecorder{}
	hashedRun(t, cfg, KindBaseline, "505.mcf", recorderBudget, rec)
	for _, name := range []string{"dom-park", "dom-resume", "invisible", "exposure", "nda-withheld", "nda-release", "stt-nop"} {
		if n := rec.byAnnot[annotIdx(name)]; n > 0 {
			t.Errorf("baseline: %d %s annotations recorded", n, name)
		}
	}
}

// TestAnnotNames pins the two annotation renderers against each other.
func TestAnnotNames(t *testing.T) {
	set := AnnotL1Hit | AnnotDoMParked | AnnotMispredict
	want := "l1-hit|dom-park|mispredict"
	if got := string(set.AppendNames(nil)); got != want {
		t.Errorf("AppendNames = %q, want %q", got, want)
	}
	names := set.AnnotNames()
	if len(names) != 3 || names[0] != "l1-hit" || names[1] != "dom-park" || names[2] != "mispredict" {
		t.Errorf("AnnotNames = %v", names)
	}
	if got := TraceAnnot(0).AppendNames(nil); len(got) != 0 {
		t.Errorf("empty set rendered %q", got)
	}
}

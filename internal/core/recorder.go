package core

import "repro/internal/isa"

// The observer hook API — the one way to see into a running core. A
// Recorder sees every micro-op's passage through every pipeline stage,
// cycle-stamped, with the scheme-inserted delays (a Delay-on-Miss park,
// an InvisiSpec exposure, an NDA withheld broadcast, an STT nop slot)
// annotated at the event that caused them. It serves the per-cycle trace
// export (internal/trace) — the simulator-side half of the paper's
// TraceDoctor methodology (Section 7), which found the exchange2
// forwarding-error pathology of Section 9.2 — and the differential oracle
// (internal/diffsim), which asserts each scheme's security argument over
// the events' invariant fields: STT never issues a Transmitter part while
// Tainted, NDA never releases a Broadcast while Speculative, DoM and
// InvisiSpec never start a speculative CacheAccess with side effects.
//
// Recorders are strictly observational. Every hook fires after the
// pipeline has committed to the reported transition, carries copies of
// the relevant state, and must not perturb timing — the commit stream and
// cycle count of a run with a Recorder attached are byte-identical to the
// same run without one (TestRecorderIsObservational). When Core.Recorder
// is nil the dispatch cost is one pointer compare per site.

// Recorder observes per-uop pipeline stage transitions.
type Recorder interface {
	// OnStage fires once per micro-op stage transition. Events are
	// emitted in non-decreasing cycle order; within a cycle they follow
	// the back-to-front stage processing order (commit before issue
	// before rename). Implementations must not retain the event past the
	// call (it is a value; retaining copies is fine).
	OnStage(ev StageEvent)
}

// Stage identifies a pipeline stage transition in a StageEvent.
type Stage uint8

const (
	// StageFetch is the cycle the instruction was fetched. It is
	// reported retroactively alongside StageRename (the front end does
	// not know sequence numbers; wrong-path fetches that never reach
	// rename are not traced).
	StageFetch Stage = iota
	// StageRename is the cycle the uop was renamed into the backend.
	StageRename
	// StageIssue is an issue-stage selection outcome: a successful issue
	// of the whole uop or a store half (Part), a Delay-on-Miss park
	// (AnnotDoMParked), or an STT taint nop (AnnotSTTNopped).
	StageIssue
	// StageWriteback is the cycle a completion event retired (store
	// halves report their Part).
	StageWriteback
	// StageVP is the cycle the visibility-point walk passed the uop —
	// the moment it became non-speculative — or, annotated, a VP-side
	// scheme event on it (exposure re-access, NDA broadcast release).
	StageVP
	// StageCommit is the cycle the uop retired architecturally.
	StageCommit
	// StageSquash is the cycle the uop was squashed (branch mispredict
	// recovery or a memory-ordering flush).
	StageSquash

	numStages
)

var stageNames = [numStages]string{
	StageFetch:     "fetch",
	StageRename:    "rename",
	StageIssue:     "issue",
	StageWriteback: "writeback",
	StageVP:        "vp",
	StageCommit:    "commit",
	StageSquash:    "squash",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage?"
}

// TraceAnnot is a bitset of scheme and memory annotations on a StageEvent
// — where each scheme inserts its delays, stamped on the event that
// inserted them.
type TraceAnnot uint16

const (
	// AnnotL1Hit marks an issued load that hit the L1 (or forwarded from
	// the store queue), and an exposure that hit.
	AnnotL1Hit TraceAnnot = 1 << iota
	// AnnotDoMParked marks a Delay-on-Miss park: the issue attempt found
	// a speculative L1 miss and the load parked until the visibility
	// point (Stage is StageIssue; no issue happened).
	AnnotDoMParked
	// AnnotDoMResumed marks the visibility-point walk re-arming a parked
	// load (Stage is StageVP).
	AnnotDoMResumed
	// AnnotInvisible marks an InvisiSpec load issued into the
	// speculative buffer instead of the cache hierarchy.
	AnnotInvisible
	// AnnotExposure marks an InvisiSpec exposure re-access starting
	// (Stage is StageVP; commit-driven exposures report the same stage —
	// commit is the definitive visibility point).
	AnnotExposure
	// AnnotNDAWithheld marks a completed load whose ready broadcast NDA
	// withheld at writeback.
	AnnotNDAWithheld
	// AnnotNDAReleased marks the withheld broadcast being released by
	// the visibility point (StageVP) or commit (StageCommit).
	AnnotNDAReleased
	// AnnotSTTNopped marks an issue slot the STT taint unit wasted on a
	// nop instead of the selected uop (Stage is StageIssue; the uop
	// stays queued).
	AnnotSTTNopped
	// AnnotMispredict marks a resolved control instruction whose
	// predicted target was wrong (Stage is StageWriteback).
	AnnotMispredict

	numAnnots = 9
)

var annotNames = [numAnnots]string{
	"l1-hit",
	"dom-park",
	"dom-resume",
	"invisible",
	"exposure",
	"nda-withheld",
	"nda-release",
	"stt-nop",
	"mispredict",
}

// AnnotNames renders the set as stable dash-case names in bit order.
func (a TraceAnnot) AnnotNames() []string {
	var out []string
	for i := 0; i < numAnnots; i++ {
		if a&(1<<i) != 0 {
			out = append(out, annotNames[i])
		}
	}
	return out
}

// AppendNames appends the set's names to dst separated by '|' — the
// allocation-free encoder path (see internal/trace).
func (a TraceAnnot) AppendNames(dst []byte) []byte {
	first := true
	for i := 0; i < numAnnots; i++ {
		if a&(1<<i) == 0 {
			continue
		}
		if !first {
			dst = append(dst, '|')
		}
		first = false
		dst = append(dst, annotNames[i]...)
	}
	return dst
}

// IssuePart identifies which half of a store an issue or writeback event
// concerns; everything else reports PartWhole.
type IssuePart = issuePart

// Issue parts reported by StageEvent.
const (
	PartWhole     IssuePart = partWhole
	PartStoreAddr IssuePart = partStoreAddr
	PartStoreData IssuePart = partStoreData
)

// StageEvent describes one micro-op stage transition.
type StageEvent struct {
	Cycle uint64
	Seq   uint64 // program-order sequence number assigned at rename
	PC    uint64
	// Addr is a load's or store's effective address once computed (zero
	// before, and for every other uop).
	Addr  uint64
	Op    isa.Op
	Stage Stage
	// Part distinguishes store address/data halves at issue and
	// writeback; everything else reports PartWhole.
	Part IssuePart
	// Annot carries the scheme and memory annotations of this event.
	Annot TraceAnnot
	// Speculative reports whether the uop had not yet passed the
	// visibility point when the event fired. Commit events always report
	// false: commit is the definitive visibility point, even when it ran
	// ahead of the visibility-point walk.
	Speculative bool
	// Transmitter reports, on a successful issue (StageIssue without
	// AnnotDoMParked or AnnotSTTNopped), whether issuing this part has an
	// observable, operand-dependent effect (Section 3.1).
	Transmitter bool
	// Tainted reports, on a successful issue, whether the active scheme
	// considered the part's operands tainted (rooted at an unsafe
	// speculative load) at the moment of issue. Always false for schemes
	// that track no taint. An STT scheme issuing a Transmitter part with
	// Tainted set has violated its own security argument.
	Tainted bool
	// Broadcast reports that a load's ready broadcast was released to
	// dependents at this event: at issue under speculative L1-hit wakeup,
	// at writeback otherwise, or — NDA's withheld broadcast, annotated
	// AnnotNDAReleased — at the visibility point or commit. A scheme that
	// delays load broadcasts (NDA) must never release one while
	// Speculative.
	Broadcast bool
	// CacheAccess reports that this event started a load's data-cache
	// hierarchy access: a demand access, or an InvisiSpec
	// speculative-buffer access (AnnotInvisible), at issue; an exposure
	// re-access (AnnotExposure) at the visibility point. AnnotL1Hit gives
	// the outcome, so an access that is neither invisible nor an L1 hit
	// occupies an MSHR past the L1. A store-forwarded load is annotated
	// AnnotL1Hit but makes no access.
	CacheAccess bool
}

// eventFx are the facts of a StageEvent that only its call site knows.
type eventFx uint8

const (
	fxBroadcast   eventFx = 1 << iota // a load ready broadcast was released
	fxCacheAccess                     // a data-cache hierarchy access started
)

// taintQuerier is implemented by taint-tracking schemes to give
// recordEvent a read-only view of the taint governing an issuing part. It
// is queried only when a Recorder is attached.
type taintQuerier interface {
	taintedPart(u int32, part issuePart) bool
}

// recordStage reports a stage transition at the current cycle. Callers
// check c.Recorder != nil first so the nil case costs one compare.
func (c *Core) recordStage(u int32, stage Stage, part issuePart, annot TraceAnnot) {
	c.recordEvent(u, c.cycle, stage, part, annot, 0)
}

// recordEvent is recordStage with an explicit cycle stamp (the
// retroactive fetch record) and the call site's facts.
func (c *Core) recordEvent(u int32, cycle uint64, stage Stage, part issuePart, annot TraceAnnot, fx eventFx) {
	b := &c.a.body[u]
	ev := StageEvent{
		Cycle:       cycle,
		Seq:         c.a.seq[u],
		PC:          b.pc,
		Addr:        b.addr,
		Op:          b.inst.Op,
		Stage:       stage,
		Part:        part,
		Annot:       annot,
		Speculative: stage != StageCommit && !b.nonSpec,
		Broadcast:   fx&fxBroadcast != 0,
		CacheAccess: fx&fxCacheAccess != 0,
	}
	if stage == StageIssue && annot&(AnnotDoMParked|AnnotSTTNopped) == 0 {
		ev.Transmitter = c.a.transmitterPart(u, part)
		ev.Tainted = c.taintQ != nil && c.taintQ.taintedPart(u, part)
	}
	c.Recorder.OnStage(ev)
}

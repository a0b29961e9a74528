package core

import (
	"fmt"
	"strings"
)

// Stats aggregates the core's performance counters. The taxonomy mirrors
// the KPIs the paper extracts with TraceDoctor (Section 7): committed
// work, stall causes, squash causes, forwarding behaviour, and the
// scheme-specific taint/broadcast activity. Every uint64 field is an
// event counter; the two int fields, MaxRenameChain and SpecBufPeak, are
// high-water marks, which Since keeps whole-run.
type Stats struct {
	Cycles    uint64
	Committed uint64

	CommittedLoads    uint64
	CommittedStores   uint64
	CommittedBranches uint64
	CommittedJumps    uint64

	Fetched uint64

	// Control speculation.
	BranchesResolved uint64
	Mispredicts      uint64
	BTBMissForcedNT  uint64

	// Memory speculation.
	MemOrderViolations uint64 // loads found to have read stale data
	MemOrderFlushes    uint64 // pipeline flushes at commit of such loads
	FwdHits            uint64 // store-to-load forwards
	FwdWaits           uint64 // loads replayed waiting for store data
	SpecLoadsExecuted  uint64 // loads executed while speculative
	MSHRRetries        uint64
	MemDepStalls       uint64 // dependence-predictor forced waits

	SquashedUops uint64

	// Rename stalls, counted per stalled slot-cycle.
	RenameStallROB   uint64
	RenameStallIQ    uint64
	RenameStallLQ    uint64
	RenameStallSQ    uint64
	RenameStallPhys  uint64
	RenameStallCkpt  uint64
	RenameStallEmpty uint64 // fetch buffer empty (front-end starvation)

	IssuedUops uint64

	// Secure-scheme activity.
	TaintedRenames      uint64 // STT-Rename: uops renamed with a live YRoT
	MaxRenameChain      int    // STT-Rename: deepest same-cycle YRoT chain
	RenameChainSum      uint64
	TaintBlockedSelects uint64 // STT-Rename: selection vetoes (uop-cycles)
	TaintNopSlots       uint64 // STT-Issue: issue slots wasted on nops
	YRoTBroadcasts      uint64 // non-speculative-load broadcasts
	DelayedBroadcasts   uint64 // NDA: load broadcasts withheld at completion

	DoMDelayedLoads uint64 // DoM: loads parked as speculative L1 misses
	InvisibleLoads  uint64 // InvisiSpec: loads issued into the speculative buffer
	Exposures       uint64 // InvisiSpec: exposure re-accesses performed
	ExposureRetries uint64 // InvisiSpec: exposures deferred on a full MSHR file
	SpecBufPeak     int    // InvisiSpec: peak speculative-buffer occupancy
}

// Since returns the counters accumulated after start, an earlier snapshot
// of the same core: every event counter is s minus start. The high-water
// marks MaxRenameChain and SpecBufPeak cannot be split at a point in time,
// so they stay the whole run's.
func (s Stats) Since(start Stats) Stats {
	return Stats{
		Cycles:              s.Cycles - start.Cycles,
		Committed:           s.Committed - start.Committed,
		CommittedLoads:      s.CommittedLoads - start.CommittedLoads,
		CommittedStores:     s.CommittedStores - start.CommittedStores,
		CommittedBranches:   s.CommittedBranches - start.CommittedBranches,
		CommittedJumps:      s.CommittedJumps - start.CommittedJumps,
		Fetched:             s.Fetched - start.Fetched,
		BranchesResolved:    s.BranchesResolved - start.BranchesResolved,
		Mispredicts:         s.Mispredicts - start.Mispredicts,
		BTBMissForcedNT:     s.BTBMissForcedNT - start.BTBMissForcedNT,
		MemOrderViolations:  s.MemOrderViolations - start.MemOrderViolations,
		MemOrderFlushes:     s.MemOrderFlushes - start.MemOrderFlushes,
		FwdHits:             s.FwdHits - start.FwdHits,
		FwdWaits:            s.FwdWaits - start.FwdWaits,
		SpecLoadsExecuted:   s.SpecLoadsExecuted - start.SpecLoadsExecuted,
		MSHRRetries:         s.MSHRRetries - start.MSHRRetries,
		MemDepStalls:        s.MemDepStalls - start.MemDepStalls,
		SquashedUops:        s.SquashedUops - start.SquashedUops,
		RenameStallROB:      s.RenameStallROB - start.RenameStallROB,
		RenameStallIQ:       s.RenameStallIQ - start.RenameStallIQ,
		RenameStallLQ:       s.RenameStallLQ - start.RenameStallLQ,
		RenameStallSQ:       s.RenameStallSQ - start.RenameStallSQ,
		RenameStallPhys:     s.RenameStallPhys - start.RenameStallPhys,
		RenameStallCkpt:     s.RenameStallCkpt - start.RenameStallCkpt,
		RenameStallEmpty:    s.RenameStallEmpty - start.RenameStallEmpty,
		IssuedUops:          s.IssuedUops - start.IssuedUops,
		TaintedRenames:      s.TaintedRenames - start.TaintedRenames,
		MaxRenameChain:      s.MaxRenameChain,
		RenameChainSum:      s.RenameChainSum - start.RenameChainSum,
		TaintBlockedSelects: s.TaintBlockedSelects - start.TaintBlockedSelects,
		TaintNopSlots:       s.TaintNopSlots - start.TaintNopSlots,
		YRoTBroadcasts:      s.YRoTBroadcasts - start.YRoTBroadcasts,
		DelayedBroadcasts:   s.DelayedBroadcasts - start.DelayedBroadcasts,
		DoMDelayedLoads:     s.DoMDelayedLoads - start.DoMDelayedLoads,
		InvisibleLoads:      s.InvisibleLoads - start.InvisibleLoads,
		Exposures:           s.Exposures - start.Exposures,
		ExposureRetries:     s.ExposureRetries - start.ExposureRetries,
		SpecBufPeak:         s.SpecBufPeak,
	}
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// MispredictRate returns mispredictions per resolved branch.
func (s Stats) MispredictRate() float64 {
	if s.BranchesResolved == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.BranchesResolved)
}

// String renders a compact multi-line counter dump.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles               %12d\n", s.Cycles)
	fmt.Fprintf(&b, "committed            %12d  (IPC %.4f)\n", s.Committed, s.IPC())
	fmt.Fprintf(&b, "  loads/stores       %12d / %d\n", s.CommittedLoads, s.CommittedStores)
	fmt.Fprintf(&b, "  branches/jumps     %12d / %d\n", s.CommittedBranches, s.CommittedJumps)
	fmt.Fprintf(&b, "fetched              %12d\n", s.Fetched)
	fmt.Fprintf(&b, "branches resolved    %12d  (%.2f%% mispredicted)\n", s.BranchesResolved, 100*s.MispredictRate())
	fmt.Fprintf(&b, "mem-order violations %12d  (flushes %d)\n", s.MemOrderViolations, s.MemOrderFlushes)
	fmt.Fprintf(&b, "stlf hits/waits      %12d / %d\n", s.FwdHits, s.FwdWaits)
	fmt.Fprintf(&b, "speculative loads    %12d\n", s.SpecLoadsExecuted)
	fmt.Fprintf(&b, "squashed uops        %12d\n", s.SquashedUops)
	fmt.Fprintf(&b, "issued uops          %12d\n", s.IssuedUops)
	fmt.Fprintf(&b, "rename stalls        rob %d iq %d lq %d sq %d phys %d ckpt %d fe %d\n",
		s.RenameStallROB, s.RenameStallIQ, s.RenameStallLQ, s.RenameStallSQ,
		s.RenameStallPhys, s.RenameStallCkpt, s.RenameStallEmpty)
	fmt.Fprintf(&b, "taint: renames %d, max chain %d, blocked selects %d, nop slots %d\n",
		s.TaintedRenames, s.MaxRenameChain, s.TaintBlockedSelects, s.TaintNopSlots)
	fmt.Fprintf(&b, "broadcasts: yrot %d, delayed %d\n", s.YRoTBroadcasts, s.DelayedBroadcasts)
	fmt.Fprintf(&b, "dom: delayed loads %d; invisispec: invisible %d, exposures %d (retries %d, buf peak %d)\n",
		s.DoMDelayedLoads, s.InvisibleLoads, s.Exposures, s.ExposureRetries, s.SpecBufPeak)
	return b.String()
}

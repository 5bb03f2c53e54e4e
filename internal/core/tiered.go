package core

import (
	"fmt"

	"teco/internal/conformance/check"
	"teco/internal/modelzoo"
	"teco/internal/phases"
	"teco/internal/sim"
	"teco/internal/tiering"
)

// Heterogeneous-memory tiering for the timing engine — the timing half of
// the controller whose functional half lives in realtrain (both share
// tiering.Controller over staging.Residency, so slot placement has one
// definition on both sides of the house equality).
//
// RunTiered runs Steps ordinary TECO steps (compute + coherence planes,
// untouched) and adds a TIERING plane on top: host-side model state lives
// in two tiers — local DDR4 (fast) and DRAM behind a CXL.mem expander
// (far). Each layer contributes a parameter slot (touched by forward,
// backward and the update pass) and, in OptSlots mode, an optimizer-state
// slot of twice the bytes (FP32 ADAM moments m+v) touched only by the
// update — a ~6× per-byte heat-density skew that makes placement matter.
// A far-tier touch streams the slot over the CXL link and exposes its
// latency in the breakdown (forward/backward parameter touches extend Prm,
// update-pass touches extend Adam); a fast-tier touch costs nothing extra
// (local DDR is already priced inside the compute phases). Migrations
// planned from the recorded heat are pushed on the same links at step
// start, so they queue ahead of — compete with — the step's own demand
// traffic, bounded per step by the migration budget.
//
// When every slot fits fast (DRAMBytes 0) the tiering plane moves no bytes
// and adds no time: RunTiered degrades to a sum of plain Steps
// bit-identically, with only the TierStats hit counters recording that the
// walk happened (asserted by tiered_test.go). A zero migration budget
// likewise freezes the initial placement regardless of policy.

// DefaultTierSteps is the step count RunTiered aggregates when
// TierConfig.Steps is zero: enough for heat to separate and migration to
// converge, small enough to keep the sweeps fast.
const DefaultTierSteps = 4

// TierConfig parameterizes one tiered run.
type TierConfig struct {
	// Layers overrides the model's layer count (0 keeps the model's own).
	Layers int
	// DRAMBytes is the fast-tier capacity; 0 means the whole model fits
	// fast (the all-resident baseline). A bounded capacity must hold the
	// largest single slot.
	DRAMBytes int64
	// Policy is the placement rank: "" or "heat", "lru", "static".
	Policy string
	// MigrateBudget is the per-step migration byte budget — the admission
	// throttle; 0 disables migration (static first-fit placement).
	MigrateBudget int64
	// Steps is the number of training steps to aggregate (0 =
	// DefaultTierSteps).
	Steps int
	// OptSlots schedules optimizer-state slots (2× parameter bytes, the
	// FP32 m+v moments) separately from parameters.
	OptSlots bool
}

// TierTrace is the recorded access trace and final placement of a tiered
// run — the input the oracle placement and the policy ablation's cost
// accounting consume.
type TierTrace struct {
	Sizes     []int64
	Heat      []int64
	Fast      []bool
	FastBytes int64
}

// tierSlotBytes builds the slot sizes: per-layer parameter slots,
// interleaved with 2× optimizer-state slots in OptSlots mode
// (param k = slot 2k, opt k = slot 2k+1).
func tierSlotBytes(m modelzoo.Model, optSlots bool) []int64 {
	params := layerSlotBytes(m)
	if !optSlots {
		return params
	}
	sizes := make([]int64, 0, 2*len(params))
	for _, p := range params {
		sizes = append(sizes, p, 2*p)
	}
	return sizes
}

// addStep accumulates one step's result into a run aggregate: every
// additive field sums, Degraded ORs.
func addStep(a, s phases.StepResult) phases.StepResult {
	a.Variant = s.Variant
	a.Fwd += s.Fwd
	a.Bwd += s.Bwd
	a.Grad += s.Grad
	a.Clip += s.Clip
	a.Adam += s.Adam
	a.Prm += s.Prm
	a.ParamLinkBytes += s.ParamLinkBytes
	a.GradLinkBytes += s.GradLinkBytes
	a.Fault.Retries += s.Fault.Retries
	a.Fault.ReplayedBytes += s.Fault.ReplayedBytes
	a.Fault.Poisoned += s.Fault.Poisoned
	a.Fault.Recovered += s.Fault.Recovered
	a.Fault.Stalls += s.Fault.Stalls
	a.Fault.StallTime += s.Fault.StallTime
	a.Fault.Exposed += s.Fault.Exposed
	a.Fault.Degraded = a.Fault.Degraded || s.Fault.Degraded
	return a
}

// RunTiered simulates tc.Steps training steps under heterogeneous-memory
// tiering and returns the aggregated result plus the recorded trace.
func (e *Engine) RunTiered(m modelzoo.Model, batch int, tc TierConfig) (phases.StepResult, TierTrace, error) {
	if e.Config.Invalidation {
		return phases.StepResult{}, TierTrace{}, fmt.Errorf("core: tiering requires the update protocol")
	}
	if tc.Layers < 0 || tc.DRAMBytes < 0 || tc.MigrateBudget < 0 || tc.Steps < 0 {
		return phases.StepResult{}, TierTrace{}, fmt.Errorf("core: negative tier config %+v", tc)
	}
	if tc.Layers > 0 {
		m.Layers = tc.Layers
	}
	policy, err := tiering.ParsePolicy(tc.Policy)
	if err != nil {
		return phases.StepResult{}, TierTrace{}, err
	}
	steps := tc.Steps
	if steps == 0 {
		steps = DefaultTierSteps
	}
	sizes := tierSlotBytes(m, tc.OptSlots)
	ctl, err := tiering.New(tiering.Config{
		Sizes:       sizes,
		FastBytes:   tc.DRAMBytes,
		Policy:      policy,
		BudgetBytes: tc.MigrateBudget,
	})
	if err != nil {
		return phases.StepResult{}, TierTrace{}, err
	}

	// Tiering plane: a slot plane of its own, like the staging plane's.
	p := newSlotPlane(e, len(sizes))
	pslot := func(k int) int {
		if tc.OptSlots {
			return 2 * k
		}
		return k
	}
	var farFetchBytes int64
	// touch walks one demand access to slot k at t and returns the exposed
	// stall.
	touch := func(k int, t sim.Time) sim.Time {
		fast, sz := ctl.Touch(k), ctl.Size(k)
		if !fast {
			farFetchBytes += sz
		}
		return p.access(k, fast, sz, t)
	}

	var agg phases.StepResult
	var cursor, farStall, adamStall sim.Time
	n := m.Layers
	for s := 0; s < steps; s++ {
		// Compute + coherence planes: the ordinary TECO step, untouched.
		out := e.Step(m, batch)

		// Migrations planned from the heat recorded so far, excluding the
		// slot of the layer about to execute, priced at step start as
		// background traffic: promotions stream far→fast ahead of the
		// step's demand fetches, competing for the same bandwidth, and
		// demotions stream fast→far.
		for _, mg := range ctl.PlanStep(pslot(0)) {
			if mg.Promote {
				p.load(mg.Slot, mg.Bytes, cursor)
			} else {
				p.push(mg.Slot, mg.Bytes, cursor)
			}
		}

		var fwdStall, updStall sim.Time
		stepStart := cursor
		// Forward walk: layer k touches its parameter slot over its share
		// of the forward time; backward walks in reverse.
		for k := 0; k < n; k++ {
			fwdStall += touch(pslot(k), cursor)
			cursor += share(out.Fwd, k, n)
		}
		for k := n - 1; k >= 0; k-- {
			fwdStall += touch(pslot(k), cursor)
			cursor += share(out.Bwd, n-1-k, n)
		}
		cursor += out.Grad
		// Update pass: the CPU reads/writes master parameters and, in
		// OptSlots mode, the ADAM moments, over the clip+ADAM window.
		upd := out.Clip + out.Adam
		for k := 0; k < n; k++ {
			updStall += touch(pslot(k), cursor)
			if tc.OptSlots {
				updStall += touch(2*k+1, cursor)
			}
			cursor += share(upd, k, n)
		}

		out.Prm += fwdStall
		out.Adam += updStall
		farStall += fwdStall
		adamStall += updStall
		// The next step starts after this one's full critical path.
		cursor = stepStart + out.Total()

		if check.Enabled() {
			check.Check(out.Check, ctl.CheckInvariants)
		}
		agg = addStep(agg, out)
	}

	st := ctl.Stats()
	agg.Tier = phases.TierStats{
		Slots:         st.Slots,
		Steps:         st.PlanSteps,
		FastBytes:     st.FastBytes,
		ResidentBytes: st.ResidentBytes,
		FastHits:      st.FastHits,
		FarAccesses:   st.FarAccesses,
		FarFetchBytes: farFetchBytes,
		Migrations:    st.Migrations,
		PromotedBytes: st.PromotedBytes,
		DemotedBytes:  st.DemotedBytes,
		Deferred:      st.Deferred,
		FarStall:      farStall,
		AdamStall:     adamStall,
	}

	trace := TierTrace{
		Sizes:     sizes,
		Heat:      ctl.Heat(),
		Fast:      ctl.Placement(),
		FastBytes: ctl.Capacity(),
	}
	if check.Enabled() {
		check.Check(agg.Check, ctl.CheckInvariants)
	}
	return agg, trace, nil
}

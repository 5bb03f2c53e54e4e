package realtrain

import (
	"fmt"

	"teco/internal/conformance/check"
	"teco/internal/tiering"
)

// Functional half of the heterogeneous-memory tiering controller: the
// trainer replays each step's tier accesses against a tiering.Controller
// (the same implementation core.RunTiered prices on the timed links) as
// pure bookkeeping beside the numeric step. Each model segment contributes
// two slots — slot 2k holds segment k's parameters (4 bytes/word, touched
// by forward, backward and the update pass) and slot 2k+1 its ADAM
// optimizer state (m+v moments, 8 bytes/word, touched only by the update) —
// the heat-density skew the placement policies exploit.

// tierEnabled reports whether any tiering knob is set.
func (c Config) tierEnabled() bool {
	return c.TierDRAMPct > 0 || c.TierPolicy != "" || c.TierMigrateWords > 0
}

// newTierController builds the trainer's placement controller over the
// model's segments.
func newTierController(model proxyModel, cfg Config) (*tiering.Controller, error) {
	if cfg.TierDRAMPct < 0 || cfg.TierDRAMPct > 100 {
		return nil, fmt.Errorf("realtrain: tier DRAM pct %d outside 0..100", cfg.TierDRAMPct)
	}
	if cfg.TierMigrateWords < 0 {
		return nil, fmt.Errorf("realtrain: negative tier migration budget %d", cfg.TierMigrateWords)
	}
	policy, err := tiering.ParsePolicy(cfg.TierPolicy)
	if err != nil {
		return nil, err
	}
	segs := segmentsOf(model)
	sizes := make([]int64, 0, 2*len(segs))
	var total int64
	for _, s := range segs {
		words := int64(s.Hi - s.Lo)
		sizes = append(sizes, words*4, words*8)
		total += words * 12
	}
	capacity := total
	if cfg.TierDRAMPct > 0 {
		capacity = total * int64(cfg.TierDRAMPct) / 100
	}
	return tiering.New(tiering.Config{
		Sizes:       sizes,
		FastBytes:   capacity,
		Policy:      policy,
		BudgetBytes: int64(cfg.TierMigrateWords) * 4,
	})
}

// tierWalk replays one completed step's tier accesses (forward, backward,
// update pass) and plans this step's migrations. -1 for the executing slot:
// migrations are planned between steps, when no layer is on the compute
// unit.
func (t *Trainer) tierWalk() {
	n := t.tier.Slots() / 2
	for k := 0; k < n; k++ {
		t.tier.Touch(2 * k)
	}
	for k := n - 1; k >= 0; k-- {
		t.tier.Touch(2 * k)
	}
	for k := 0; k < n; k++ {
		t.tier.Touch(2 * k)
		t.tier.Touch(2*k + 1)
	}
	t.tier.PlanStep(-1)
	if check.Enabled() {
		check.Check(t.tier.CheckInvariants)
	}
}

// TierStats returns the tiering controller's placement/migration accounting
// and whether a controller is active. Like SchedStats, the counters live
// outside Result and the checkpoint format: they describe placement, not
// the trained model, so crash/restore equality is unaffected by them.
func (t *Trainer) TierStats() (tiering.Stats, bool) {
	if t.tier == nil {
		return tiering.Stats{}, false
	}
	return t.tier.Stats(), true
}

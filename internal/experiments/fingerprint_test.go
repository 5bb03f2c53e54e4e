package experiments

import (
	"context"
	"testing"
)

// TestFingerprintSchedulingInvariant: knobs proven not to change any output
// byte must not change the key — otherwise the cache would recompute (and
// the coalescer would split) identical work.
func TestFingerprintSchedulingInvariant(t *testing.T) {
	base := Options{Seed: 42, BER: 1e-6, RetryBudget: 4, Degrade: true}
	want := base.Fingerprint("faults")
	variants := []Options{
		{Seed: 42, BER: 1e-6, RetryBudget: 4, Degrade: true, Workers: 8},
		{Seed: 42, BER: 1e-6, RetryBudget: 4, Degrade: true, NoMemo: true},
		{Seed: 42, BER: 1e-6, RetryBudget: 4, Degrade: true, PerLine: true},
		{Seed: 42, BER: 1e-6, RetryBudget: 4, Degrade: true, CkptDir: "/tmp/elsewhere"},
		{Seed: 42, BER: 1e-6, RetryBudget: 4, Degrade: true, Ctx: context.Background()},
	}
	for i, v := range variants {
		if got := v.Fingerprint("faults"); got != want {
			t.Fatalf("variant %d: fingerprint %016x != base %016x — scheduling knob leaked into the key", i, got, want)
		}
	}
}

// TestFingerprintResultSensitivity: anything that can change a table cell
// must change the key.
func TestFingerprintResultSensitivity(t *testing.T) {
	base := Options{Seed: 42}
	seen := map[uint64]string{base.Fingerprint("faults"): "base"}
	distinct := map[string]Options{
		"seed":          {Seed: 43},
		"ber":           {Seed: 42, BER: 1e-5},
		"retry-budget":  {Seed: 42, RetryBudget: 2},
		"degrade":       {Seed: 42, Degrade: true},
		"ckpt-interval": {Seed: 42, CkptInterval: 25},
		"crash-at":      {Seed: 42, CrashAt: 10},
		"tier-policy":   {Seed: 42, TierPolicy: "lru"},
		"tier-dram":     {Seed: 42, TierDRAMPct: 25},
		"tier-budget":   {Seed: 42, TierMigrateBudget: 64},
	}
	for name, opt := range distinct {
		fp := opt.Fingerprint("faults")
		if prev, dup := seen[fp]; dup {
			t.Fatalf("%s collides with %s: %016x", name, prev, fp)
		}
		seen[fp] = name
	}
	if base.Fingerprint("faults") == base.Fingerprint("recovery") {
		t.Fatal("different experiment ids share a fingerprint")
	}
}

// TestFingerprintPinned: the canonical encoding is a compatibility
// surface — every tecosimd cache entry lives under it — so literal keys are
// pinned. Each is FNV-64a of the spelled-out encoding, e.g.
// "teco-result/v1|table1|seed=42". Changing one is a deliberate, one-time
// move of every cache key (bump fingerprintVersion and say so).
func TestFingerprintPinned(t *testing.T) {
	for _, c := range []struct {
		id   string
		opt  Options
		want uint64
	}{
		{"table1", Options{Seed: 42}, 0xb55af4ba936bb3eb},
		{"faults", Options{Seed: 42, BER: 1e-6, RetryBudget: 4, Degrade: true}, 0xe0c6fe9161a3e8a6},
		{"layers-policy", Options{Layers: 12, CachePct: 40, LayerPolicy: "fifo"}, 0xd88fa71308418393},
		{"tiering", Options{Seed: 7, TierPolicy: "lru", TierDRAMPct: 25, TierMigrateBudget: 64}, 0xa416bac62c60259a},
	} {
		if got := c.opt.Fingerprint(c.id); got != c.want {
			t.Errorf("%s %+v: fingerprint %016x, want %016x", c.id, c.opt, got, c.want)
		}
	}
}

// TestFingerprintCanonical: options that run the same computation share a
// key — a knob spelled out at the value its zero stands for, and an alias
// of an experiment id.
func TestFingerprintCanonical(t *testing.T) {
	same := []struct {
		a, b   Options
		ia, ib string
	}{
		{Options{Seed: 42, RetryBudget: 0}, Options{Seed: 42, RetryBudget: 8}, "faults", "faults"},
		{Options{Seed: 1}, Options{Seed: 1, LayerSeqLen: 1024}, "layers-policy", "layers-policy"},
		{Options{Seed: 3}, Options{Seed: 3}, "fig11", "table4"},
		{Options{Seed: 3}, Options{Seed: 3}, "fig2", "fig2b"},
	}
	for _, c := range same {
		if fa, fb := c.a.Fingerprint(c.ia), c.b.Fingerprint(c.ib); fa != fb {
			t.Errorf("%s %+v (%016x) and %s %+v (%016x) run the same computation", c.ia, c.a, fa, c.ib, c.b, fb)
		}
	}
	if (Options{Seed: 42, RetryBudget: 7}).Fingerprint("faults") == (Options{Seed: 42}).Fingerprint("faults") {
		t.Fatal("retry_budget=7 shares the default budget's key")
	}
}

// TestGridCancellation: a cancelled option context stops the sweep pool and
// grid returns stable zero values instead of partially-written storage.
func TestGridCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := grid(Options{Workers: 4, Ctx: ctx}, 100, func(i int) int { return i + 1 })
	if len(out) != 100 {
		t.Fatalf("grid returned %d values, want 100 zero values", len(out))
	}
	for i, v := range out {
		if v != 0 {
			t.Fatalf("out[%d] = %d, want 0 (cancelled before dispatch)", i, v)
		}
	}
	// And an un-cancelled context runs normally.
	out = grid(Options{Workers: 4, Ctx: context.Background()}, 10, func(i int) int { return i + 1 })
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("clean grid: out[%d] = %d", i, v)
		}
	}
}

package core

import (
	"reflect"
	"strings"
	"testing"

	"teco/internal/conformance/check"
	"teco/internal/cxl"
	"teco/internal/modelzoo"
	"teco/internal/staging"
)

// TestStepLayeredAllResidentMatchesStep is the degradation guarantee: when
// the fast tier holds every layer, the staging plane moves no bytes and
// adds no time — StepLayered equals Step bit-identically once the Layer
// accounting (which only records that the walk happened) is zeroed.
func TestStepLayeredAllResidentMatchesStep(t *testing.T) {
	check.Enable(t)
	m := modelzoo.GPT2()
	for name, cfg := range map[string]Config{
		"plain":  {},
		"dba":    {DBA: true},
		"faults": {DBA: true, Faults: cxl.FaultConfig{Seed: 5, BER: 1e-7}},
	} {
		t.Run(name, func(t *testing.T) {
			e := MustEngine(cfg)
			want := e.Step(m, 4)
			got, err := e.StepLayered(m, 4, LayerConfig{Prefetch: 2})
			if err != nil {
				t.Fatal(err)
			}
			l := got.Layer
			if l.DemandMisses != 0 || l.FetchBytes != 0 || l.WritebackBytes != 0 ||
				l.DemandStall != 0 || l.PrefetchStall != 0 || l.ActStall != 0 {
				t.Fatalf("all-resident step shows staging traffic: %+v", l)
			}
			if l.Hits != 2*int64(m.Layers) {
				t.Fatalf("layer walk hit %d times, want %d", l.Hits, 2*m.Layers)
			}
			got.Layer = want.Layer
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("all-resident layered step diverged:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestStepLayeredOverlapWin is the acceptance criterion of the layers
// sweep: with >= 4 layers and a cache under 50% of the model, the
// prefetch-scheduled step is measurably faster than the no-prefetch serial
// reference — layer-k compute hides layer-k+1 transfer.
func TestStepLayeredOverlapWin(t *testing.T) {
	check.Enable(t)
	e := MustEngine(Config{})
	m := modelzoo.GPT2() // 12 layers
	cache := m.ParamBytes() * 2 / 5

	serial, err := e.StepLayered(m, 4, LayerConfig{CacheBytes: cache})
	if err != nil {
		t.Fatal(err)
	}
	// Depth 1: the model is link-bound here (per-layer fetch ~2.9ms vs
	// ~1.1ms forward compute), and a deeper window thrashes a cache this
	// small — the layers-policy sweep charts exactly that cliff.
	sched, err := e.StepLayered(m, 4, LayerConfig{CacheBytes: cache, Prefetch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Layer.PrefetchIssued != 0 {
		t.Fatalf("serial reference issued prefetches: %+v", serial.Layer)
	}
	if sched.Layer.PrefetchIssued == 0 || sched.Layer.PrefetchHits == 0 {
		t.Fatalf("scheduled run overlapped nothing: %+v", sched.Layer)
	}
	if sched.Total() >= serial.Total() {
		t.Fatalf("prefetch won nothing: scheduled %v vs serial %v", sched.Total(), serial.Total())
	}
	if serial.Layer.DemandMisses == 0 || serial.Layer.Evictions == 0 {
		t.Fatalf("undersized cache produced no churn: %+v", serial.Layer)
	}
}

// TestStepLayeredPolicies asserts every eviction policy walks the same
// layers (same hit+miss total) while placing misses differently, and that
// pinning the hot layers removes their refetches.
func TestStepLayeredPolicies(t *testing.T) {
	check.Enable(t)
	e := MustEngine(Config{})
	m := modelzoo.GPT2()
	cache := m.ParamBytes() / 2
	uses := 2 * int64(m.Layers)

	for _, policy := range []string{"lru", "fifo", "pin"} {
		lc := LayerConfig{CacheBytes: cache, Prefetch: 1, Policy: policy}
		if policy == "pin" {
			lc.Pinned = 2
		}
		res, err := e.StepLayered(m, 4, lc)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Layer.Hits + res.Layer.DemandMisses; got != uses {
			t.Fatalf("%s: %d demand uses, want %d", policy, got, uses)
		}
		if res.Layer.CacheBytes != cache {
			t.Fatalf("%s: cache %d, want %d", policy, res.Layer.CacheBytes, cache)
		}
	}
}

// TestStepLayeredActOffload asserts the long-context mode spills and
// refetches activations: writeback volume appears and the step pays (only)
// Grad-side exposure relative to the param-only schedule.
func TestStepLayeredActOffload(t *testing.T) {
	check.Enable(t)
	e := MustEngine(Config{})
	m := modelzoo.GPT2()
	base := LayerConfig{CacheBytes: m.ParamBytes() / 2, Prefetch: 2, SeqLen: 512}
	off := base
	off.ActOffload = true

	plain, err := e.StepLayered(m, 4, base)
	if err != nil {
		t.Fatal(err)
	}
	spill, err := e.StepLayered(m, 4, off)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Layer.WritebackBytes != 0 {
		t.Fatalf("param-only schedule wrote activations: %+v", plain.Layer)
	}
	if spill.Layer.WritebackBytes == 0 || spill.Layer.ActStall == 0 {
		t.Fatalf("activation offload moved nothing: %+v", spill.Layer)
	}
	if spill.Grad <= plain.Grad {
		t.Fatalf("activation offload exposed no transfer time: %v vs %v", spill.Grad, plain.Grad)
	}
	// Activation refetches share the staging fetch link with parameter
	// fetches (so Prm may legitimately grow under contention), but compute
	// phases must be untouched.
	if spill.Fwd != plain.Fwd || spill.Bwd != plain.Bwd {
		t.Fatal("activation offload changed the compute phases")
	}
}

// TestStepLayeredTelemetryMatchesStats: the /statz layer counters move by
// exactly the step's own LayerStats, and loaded_bytes means parameter-slot
// loads only — activation refetches stay in LayerStats.FetchBytes. The
// counters are process-global, so the test asserts deltas (no core test
// runs in parallel).
func TestStepLayeredTelemetryMatchesStats(t *testing.T) {
	check.Enable(t)
	e := MustEngine(Config{})
	m := modelzoo.GPT2()
	params := LayerConfig{CacheBytes: m.ParamBytes() * 2 / 5, Prefetch: 1, SeqLen: 512}
	acts := params
	acts.ActOffload = true

	paramOnly, err := e.StepLayered(m, 4, params)
	if err != nil {
		t.Fatal(err)
	}
	before := staging.Counters()
	got, err := e.StepLayered(m, 4, acts)
	if err != nil {
		t.Fatal(err)
	}
	after := staging.Counters()

	l := got.Layer
	if l.Evictions == 0 || l.PrefetchHits == 0 || l.WritebackBytes == 0 {
		t.Fatalf("step exercised no churn, prefetch or spill: %+v", l)
	}
	for _, c := range []struct {
		name      string
		tele, got int64
	}{
		{"hits", after.Hits - before.Hits, l.Hits},
		{"prefetch_hits", after.PrefetchHits - before.PrefetchHits, l.PrefetchHits},
		{"demand_misses", after.DemandMisses - before.DemandMisses, l.DemandMisses},
		{"prefetch_issued", after.PrefetchIssued - before.PrefetchIssued, l.PrefetchIssued},
		{"evictions", after.Evictions - before.Evictions, l.Evictions},
		{"writeback_bytes", after.WritebackBytes - before.WritebackBytes, l.WritebackBytes},
		{"sched_steps", after.SchedSteps - before.SchedSteps, 1},
		// Parameter traffic does not depend on activation offload.
		{"loaded_bytes", after.LoadedBytes - before.LoadedBytes, paramOnly.Layer.FetchBytes},
	} {
		if c.tele != c.got {
			t.Errorf("/statz %s moved by %d, want %d", c.name, c.tele, c.got)
		}
	}
	if l.FetchBytes <= paramOnly.Layer.FetchBytes {
		t.Fatalf("activation refetches missing from FetchBytes: %d vs param-only %d", l.FetchBytes, paramOnly.Layer.FetchBytes)
	}
}

// TestStepLayeredDeterministic asserts the layered step is a pure function
// of its inputs.
func TestStepLayeredDeterministic(t *testing.T) {
	e := MustEngine(Config{DBA: true})
	m := modelzoo.BertLargeCased()
	lc := LayerConfig{CacheBytes: m.ParamBytes() / 3, Prefetch: 2, Policy: "fifo", ActOffload: true}
	a, err := e.StepLayered(m, 8, lc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.StepLayered(m, 8, lc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("layered step not deterministic")
	}
}

// TestStepLayeredErrors asserts malformed layer configs fail cleanly.
func TestStepLayeredErrors(t *testing.T) {
	m := modelzoo.GPT2()
	if _, err := MustEngine(Config{Invalidation: true}).StepLayered(m, 4, LayerConfig{}); err == nil {
		t.Fatal("invalidation engine accepted layered scheduling")
	}
	e := MustEngine(Config{})
	if _, err := e.StepLayered(m, 4, LayerConfig{Policy: "mru"}); err == nil || !strings.Contains(err.Error(), "policy") {
		t.Fatalf("bad policy: err=%v", err)
	}
	if _, err := e.StepLayered(m, 4, LayerConfig{CacheBytes: 100}); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("undersized cache: err=%v", err)
	}
	if _, err := e.StepLayered(m, 4, LayerConfig{Prefetch: -1}); err == nil {
		t.Fatal("negative prefetch accepted")
	}
}

package server

import (
	"context"
	"encoding/json"
	"net/http"
	"teco/internal/experiments"
	"testing"

	"teco/internal/realtrain"
	"teco/internal/staging"
)

// TestStatzExposesLayerCounters: /statz surfaces the process-wide per-layer
// offload telemetry — a scheduled training run moves the residency
// counters, and the JSON names are the documented ones. The counters are
// process-global and monotone, so the test asserts deltas.
func TestStatzExposesLayerCounters(t *testing.T) {
	s := newTestServer(t, nil)
	before := statz(t, s.Handler()).Layers

	// Drive a real stack training run under a tight cache with prefetch;
	// its residency events land in the telemetry /statz snapshots.
	tr, err := realtrain.NewTrainer(realtrain.Config{
		Arch: "stack", Layers: 3,
		Steps: 6, PreSteps: 6, Seed: 9,
		SchedCacheWords: 140000, SchedPrefetch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for !tr.Done() {
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}

	after := statz(t, s.Handler()).Layers
	if after.SchedSteps <= before.SchedSteps || after.Hits <= before.Hits {
		t.Fatalf("scheduler counters never moved: before %+v after %+v", before, after)
	}
	if after.DemandMisses <= before.DemandMisses || after.Evictions <= before.Evictions {
		t.Fatalf("churn counters never moved: before %+v after %+v", before, after)
	}
	if after.PrefetchIssued <= before.PrefetchIssued {
		t.Fatalf("prefetch counter never moved: before %+v after %+v", before, after)
	}

	// The wire names are part of the operator interface; pin them.
	raw, err := json.Marshal(Stats{Layers: staging.LayerCounters{}})
	if err != nil {
		t.Fatal(err)
	}
	var tree map[string]json.RawMessage
	if err := json.Unmarshal(raw, &tree); err != nil {
		t.Fatal(err)
	}
	var lb map[string]json.RawMessage
	if err := json.Unmarshal(tree["layers"], &lb); err != nil {
		t.Fatalf("no layers block in /statz: %s", raw)
	}
	for _, name := range []string{"demand_misses", "hits", "prefetch_hits",
		"prefetch_issued", "evictions", "evicted_bytes", "loaded_bytes",
		"writeback_bytes", "sched_steps"} {
		if _, ok := lb[name]; !ok {
			t.Fatalf("layer counter %q missing from /statz", name)
		}
	}
}

// TestRunLayerKnobsReachOptions: the /run layer knobs parse from the query
// string and land in experiments.Options.
func TestRunLayerKnobsReachOptions(t *testing.T) {
	var got experiments.Options
	s := newTestServer(t, func(c *Config) {
		c.Run = func(_ context.Context, id string, opt experiments.Options) ([]*experiments.Table, error) {
			got = opt
			return []*experiments.Table{{ID: id, Title: "stub", Header: []string{"a"}}}, nil
		}
	})
	_, code := getRun(t, s.Handler(),
		"id=layers&seed=1&layers=4&cache_pct=25&prefetch=2&layer_policy=fifo&layer_seq_len=2048")
	if code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if got.Layers != 4 || got.CachePct != 25 || got.PrefetchDepth != 2 ||
		got.LayerPolicy != "fifo" || got.LayerSeqLen != 2048 {
		t.Fatalf("layer knobs lost in transit: %+v", got)
	}
}

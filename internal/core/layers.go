package core

import (
	"fmt"

	"teco/internal/conformance/check"
	"teco/internal/modelzoo"
	"teco/internal/phases"
	"teco/internal/sim"
	"teco/internal/staging"
)

// Per-layer offload scheduling for the timing engine — the timing half of
// the scheduler whose functional half lives in realtrain.OffloadScheduler
// (both share staging.Residency, so "which layer is resident when" has one
// definition on both sides of the house equality).
//
// StepLayered runs the ordinary TECO step (compute + coherence planes,
// untouched) and adds a STAGING plane on top: a fast tier of CacheBytes
// holding a subset of the model's layers, fed from the far tier over its
// own pair of timed links. The forward walk demand-fetches each layer it
// reaches and prefetches the next Prefetch layers while layer k computes —
// layer-k compute hides layer-k+1 transfer, the paper's Fig 6 overlap at
// layer granularity. The backward walk mirrors this downward. Fetch
// latency that compute could not hide lands in the breakdown (param stalls
// in Prm, activation stalls and writeback exposure in Grad), so the layers
// sweep can chart scheduled step time against cache size and policy.
//
// When every layer fits (CacheBytes >= model) the staging plane moves no
// bytes and adds no time: StepLayered degrades to Step bit-identically,
// with only the LayerStats hit counters recording that the walk happened
// (asserted by layers_test.go, which zeroes Layer and compares DeepEqual).

// LayerConfig parameterizes one layered step.
type LayerConfig struct {
	// Layers overrides the model's layer count (0 keeps the model's own) —
	// the layers-sweep axis.
	Layers int
	// CacheBytes is the fast-tier capacity; 0 means every layer fits (the
	// all-resident baseline). A bounded capacity must hold at least the
	// largest per-layer slot.
	CacheBytes int64
	// Prefetch is the eager look-ahead depth in layers; 0 is demand-only
	// (the no-overlap serial reference).
	Prefetch int
	// Policy is the eviction discipline: "" or "lru", "fifo", "pin".
	Policy string
	// Pinned is the pinned hot-layer count (policy "pin").
	Pinned int
	// ActOffload spills each layer's activations to the far tier as
	// forward leaves them behind and refetches them for backward — the
	// long-context activation-heavy mode.
	ActOffload bool
	// SeqLen overrides the model's effective and padded sequence length
	// (the long-context knob; 0 keeps the model's own).
	SeqLen int
}

// layerSlotBytes splits the model's parameter bytes into per-layer slots
// (remainder on the last, mirroring cpusim.UpdateSchedule).
func layerSlotBytes(m modelzoo.Model) []int64 {
	n := m.Layers
	per := m.ParamBytes() / int64(n)
	rem := m.ParamBytes() - per*int64(n)
	sizes := make([]int64, n)
	for i := range sizes {
		sizes[i] = per
		if i == n-1 {
			sizes[i] += rem
		}
	}
	return sizes
}

// perLayerActBytes returns one layer's activation footprint for the batch.
func perLayerActBytes(m modelzoo.Model, batch int) int64 {
	return m.ActivationBytes(batch) / int64(m.Layers)
}

// StepLayered simulates one training step under per-layer offload
// scheduling. The compute and coherence planes are exactly Step's; the
// staging plane adds the layer-migration traffic and its exposed stalls.
func (e *Engine) StepLayered(m modelzoo.Model, batch int, lc LayerConfig) (phases.StepResult, error) {
	if e.Config.Invalidation {
		return phases.StepResult{}, fmt.Errorf("core: layered scheduling requires the update protocol")
	}
	if lc.Layers < 0 || lc.Prefetch < 0 || lc.Pinned < 0 {
		return phases.StepResult{}, fmt.Errorf("core: negative layer config %+v", lc)
	}
	if lc.Layers > 0 {
		m.Layers = lc.Layers
	}
	if lc.SeqLen > 0 {
		m.SeqLen = lc.SeqLen
		m.AllocSeqLen = lc.SeqLen
	}
	policy, err := staging.ParsePolicy(lc.Policy)
	if err != nil {
		return phases.StepResult{}, err
	}
	sizes := layerSlotBytes(m)
	res, err := staging.NewResidency(sizes, lc.CacheBytes, policy, lc.Pinned)
	if err != nil {
		return phases.StepResult{}, err
	}
	// Warm start: the fast tier holds the lowest layers, the working set
	// the previous step's backward walk (which ends at layer 0) left.
	for i := range sizes {
		if !res.Warm(i) {
			break
		}
	}

	// Compute + coherence planes: the ordinary TECO step, untouched.
	out := e.Step(m, batch)

	// Staging plane: parameter slots 0..L-1, activation slots L..2L-1.
	p := newSlotPlane(e, 2*m.Layers)
	var actBytes int64
	if lc.ActOffload {
		actBytes = perLayerActBytes(m, batch)
	}
	fwd := e.GPU.ForwardTime(m, batch)
	bwd := e.GPU.BackwardTime(m, batch)
	n := m.Layers
	last := n - 1
	var demandStall, prefetchStall sim.Time
	// use walks one demand access to parameter slot k at t and returns the
	// stall compute must absorb before layer k can execute.
	use := func(k int, t sim.Time) sim.Time {
		miss, _ := res.Use(k, k)
		stall := p.access(k, !miss, sizes[k], t)
		if miss {
			demandStall += stall
		} else {
			prefetchStall += stall
		}
		return stall
	}
	prefetch := func(j, k int, t sim.Time) {
		if res.Prefetch(j, k) {
			p.load(j, sizes[j], t)
		}
	}

	// Forward walk: layer k computes over its share of the forward time
	// while the prefetch window pulls k+1..k+P; its activations spill to
	// the far tier behind it.
	var cursor, prmStall, actStall sim.Time
	for k := 0; k <= last; k++ {
		prmStall += use(k, cursor)
		for j := k + 1; j <= k+lc.Prefetch && j <= last; j++ {
			prefetch(j, k, cursor)
		}
		if actBytes > 0 {
			p.push(n+k, actBytes, cursor)
		}
		cursor += share(fwd, k, n)
	}
	// Backward walk in reverse, prefetching downward; spilled activations
	// stream back in before each layer's backward.
	for k := last; k >= 0; k-- {
		prmStall += use(k, cursor)
		for j := k - 1; j >= k-lc.Prefetch && j >= 0; j-- {
			prefetch(j, k, cursor)
			if actBytes > 0 && p.arrive[n+j] == 0 {
				p.load(n+j, actBytes, cursor)
			}
		}
		if actBytes > 0 {
			actStall += p.access(n+k, p.arrive[n+k] != 0, actBytes, cursor)
		}
		cursor += share(bwd, last-k, n)
	}
	// The counters are the residency's own; every layer's activations went
	// out once and came back once.
	rs := res.Stats()
	actVolume := int64(n) * actBytes
	st := phases.LayerStats{
		Layers:         int64(n),
		CacheBytes:     res.Capacity(),
		ResidentBytes:  res.ResidentBytes(),
		Hits:           rs.Hits,
		PrefetchHits:   rs.PrefetchHits,
		DemandMisses:   rs.DemandMisses,
		PrefetchIssued: rs.PrefetchIssued,
		Evictions:      rs.Evictions,
		FetchBytes:     rs.LoadedBytes + actVolume,
		WritebackBytes: actVolume,
		DemandStall:    demandStall,
		PrefetchStall:  prefetchStall,
		ActStall:       actStall,
	}
	// Evicted parameter layers are clean (the CPU master copy is
	// authoritative), so evictions are free; the only writeback exposure
	// is the activation spill still in flight when backward needs the bus.
	if actBytes > 0 {
		actStall += p.wb.Link().Fence(cursor) - cursor
	}
	// The staging plane is a separate far-tier interconnect: its volumes
	// stay in LayerStats rather than folding into the coherence link
	// counters, but its exposed latency is real step time — param stalls
	// extend Prm, activation stalls and spill exposure extend Grad.
	out.Prm += prmStall
	out.Grad += actStall
	out.Layer = st

	// Both scheduler halves feed the process-wide /statz telemetry.
	res.RecordSchedStep()
	if st.WritebackBytes > 0 {
		staging.RecordWriteback(st.WritebackBytes)
	}

	if check.Enabled() {
		check.Check(out.Check, res.CheckInvariants)
	}
	return out, nil
}

package staging

import "sync/atomic"

// Process-wide layer-offload telemetry. Both halves of the per-layer
// scheduler — the functional trainer path (realtrain.OffloadScheduler) and
// the timing engine (core.StepLayered) — flush their residency's per-step
// delta here (Residency.RecordSchedStep), so the daemon's /statz endpoint
// can show layer heat and fast-tier churn alongside the fabric and cache
// figures. Counters are monotone for the life of the process.
var telemetry struct {
	demandMisses   atomic.Int64
	hits           atomic.Int64
	prefetchHits   atomic.Int64
	prefetchIssued atomic.Int64
	evictions      atomic.Int64
	evictedBytes   atomic.Int64
	loadedBytes    atomic.Int64
	writebackBytes atomic.Int64
	schedSteps     atomic.Int64
}

// LayerCounters is a point-in-time copy of the process-wide layer-offload
// telemetry, JSON-shaped for /statz.
type LayerCounters struct {
	// DemandMisses / Hits / PrefetchHits count demand accesses that fetched
	// on the critical path, found the layer resident, and found it resident
	// because a prefetch raced ahead of use.
	DemandMisses int64 `json:"demand_misses"`
	Hits         int64 `json:"hits"`
	PrefetchHits int64 `json:"prefetch_hits"`
	// PrefetchIssued counts prefetch fetches started.
	PrefetchIssued int64 `json:"prefetch_issued"`
	// Evictions / EvictedBytes / LoadedBytes count a layer scheduler's
	// fast-tier churn; LoadedBytes is parameter slots only (activation
	// traffic is in WritebackBytes and the step's LayerStats).
	Evictions    int64 `json:"evictions"`
	EvictedBytes int64 `json:"evicted_bytes"`
	LoadedBytes  int64 `json:"loaded_bytes"`
	// WritebackBytes is the volume written back to the far tier
	// (activation spills and layer writebacks).
	WritebackBytes int64 `json:"writeback_bytes"`
	// SchedSteps counts training steps that ran under a layer scheduler.
	SchedSteps int64 `json:"sched_steps"`
}

// Counters returns the current process-wide layer-offload telemetry.
func Counters() LayerCounters {
	return LayerCounters{
		DemandMisses:   telemetry.demandMisses.Load(),
		Hits:           telemetry.hits.Load(),
		PrefetchHits:   telemetry.prefetchHits.Load(),
		PrefetchIssued: telemetry.prefetchIssued.Load(),
		Evictions:      telemetry.evictions.Load(),
		EvictedBytes:   telemetry.evictedBytes.Load(),
		LoadedBytes:    telemetry.loadedBytes.Load(),
		WritebackBytes: telemetry.writebackBytes.Load(),
		SchedSteps:     telemetry.schedSteps.Load(),
	}
}

// RecordSchedStep folds the residency's activity since the previous flush
// into the process-wide counters: one flush per scheduled step. Only layer
// schedulers flush, so a tiering controller's demotions (explicit Evicts)
// never show up as layer evictions.
func (r *Residency) RecordSchedStep() {
	d := r.stats
	telemetry.demandMisses.Add(d.DemandMisses - r.tele.DemandMisses)
	telemetry.hits.Add(d.Hits - r.tele.Hits)
	telemetry.prefetchHits.Add(d.PrefetchHits - r.tele.PrefetchHits)
	telemetry.prefetchIssued.Add(d.PrefetchIssued - r.tele.PrefetchIssued)
	telemetry.evictions.Add(d.Evictions - r.tele.Evictions)
	telemetry.evictedBytes.Add(d.EvictedBytes - r.tele.EvictedBytes)
	telemetry.loadedBytes.Add(d.LoadedBytes - r.tele.LoadedBytes)
	telemetry.schedSteps.Add(1)
	r.tele = d
}

// RecordWriteback notes n bytes written back to the far tier.
func RecordWriteback(n int64) { telemetry.writebackBytes.Add(n) }

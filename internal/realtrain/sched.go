package realtrain

import (
	"fmt"

	"teco/internal/conformance/check"
	"teco/internal/dba"
	"teco/internal/staging"
)

// Per-layer offload scheduling for the functional trainer.
//
// The scheduler partitions the model's flat parameter vector into
// layer-granular segments (Segment) and drives each step's layer traversal
// through a capacity-bounded fast-tier residency model
// (staging.Residency): forward touches layers 0..S-1 with an eager
// prefetch window running ahead, backward touches them in reverse,
// gradients stream out through the staging gradient buffer in backward
// layer order, and the parameter refresh routes every segment's bytes
// through the staging double buffer.
//
// The scheduler is numerics-invariant by construction: a per-segment
// dba.MergeWords/copy over a tiling of the vector computes exactly the
// same bytes as the whole-vector transfer, in the same order — so cache
// size, prefetch depth, eviction policy and pin count NEVER change the
// trained model (the metamorphic suite asserts this bit-exactly), they
// only change which transfers would have been on the critical path. That
// is the same design point as Config.Workers, and like Workers the knobs
// are excluded from the config fingerprint so snapshots restore across
// scheduling configurations.

// Segment is one layer-granular span [Lo, Hi) of the flat parameter
// vector.
type Segment struct {
	Name   string
	Lo, Hi int
}

// segmented is implemented by models with a layer-granular parameter
// layout; anything else is scheduled as a single block.
type segmented interface {
	Segments() []Segment
}

// segmentsOf returns the model's layer-granular segmentation, or the whole
// vector as one block.
func segmentsOf(model proxyModel) []Segment {
	if sm, ok := model.(segmented); ok {
		return sm.Segments()
	}
	return []Segment{{Name: "block", Lo: 0, Hi: model.NumParams()}}
}

// stageChunkWords is the staging double-buffer half size: 4096 FP32 words
// = 16 KiB, the same fixed quantum the parallel chunking uses.
const stageChunkWords = 4096

// SchedStats is a scheduled trainer's residency and traffic accounting.
type SchedStats struct {
	// Segments is the schedulable layer count; ResidentWords and
	// CapacityWords describe the fast tier at sampling time.
	Segments      int
	ResidentWords int64
	CapacityWords int64
	// Residency is the hit/miss/eviction accounting.
	Residency staging.ResidencyStats
	// Heat is the per-segment demand-use count (forward + backward).
	Heat []int64
	// TransferredWords counts parameter words routed master->compute
	// through the staging double buffer; BufferSwaps/BufferStalls are the
	// double buffer's counters.
	TransferredWords int64
	BufferSwaps      int64
	BufferStalls     int64
	// GradFlushes / GradWords count gradient-buffer flush batches and
	// words streamed out during backward.
	GradFlushes int64
	GradWords   int64
	// ActWords counts activation words spilled and refetched (the
	// long-context driver; zero for single-block models).
	ActWords int64
}

// OffloadScheduler owns the residency model and staging buffers of one
// trainer. Not safe for concurrent use.
type OffloadScheduler struct {
	segs []Segment
	res  *staging.Residency
	db   *staging.DoubleBuffer
	gb   *staging.GradientBuffer

	// actWordsPer is the per-(example, layer) activation word count for
	// block segments; 0 when the model keeps no per-layer activations.
	actWordsPer map[int]int

	transferred int64
	actWords    int64
	prevGradEl  int64
	steps       int64
}

// schedEnabled reports whether any offload-scheduling knob is set.
func (c Config) schedEnabled() bool {
	return c.SchedCacheWords > 0 || c.SchedPrefetch > 0 || c.SchedPolicy != "" || c.SchedPinned > 0
}

// newScheduler builds the offload scheduler for a model. The segmentation
// must tile the parameter vector exactly.
func newScheduler(model proxyModel, cfg Config, tokensPer int) (*OffloadScheduler, error) {
	segs := segmentsOf(model)
	off := 0
	for i, s := range segs {
		if s.Lo != off || s.Hi <= s.Lo {
			return nil, fmt.Errorf("realtrain: segment %d (%s) [%d,%d) does not tile the vector at %d", i, s.Name, s.Lo, s.Hi, off)
		}
		off = s.Hi
	}
	if off != model.NumParams() {
		return nil, fmt.Errorf("realtrain: segments cover %d of %d params", off, model.NumParams())
	}
	policy, err := staging.ParsePolicy(cfg.SchedPolicy)
	if err != nil {
		return nil, err
	}
	sizes := make([]int64, len(segs))
	for i, s := range segs {
		sizes[i] = int64(s.Hi-s.Lo) * 4
	}
	res, err := staging.NewResidency(sizes, int64(cfg.SchedCacheWords)*4, policy, cfg.SchedPinned)
	if err != nil {
		return nil, err
	}
	// Warm start: fill the fast tier with the lowest layers, the working
	// set a preceding backward pass (which ends at layer 0) leaves behind.
	for i := range segs {
		if !res.Warm(i) {
			break
		}
	}
	sc := &OffloadScheduler{
		segs:        segs,
		res:         res,
		db:          staging.NewDoubleBuffer(stageChunkWords),
		actWordsPer: make(map[int]int),
	}
	sc.gb = staging.NewGradientBuffer(stageChunkWords, nil)
	if ls, ok := model.(*LayerStack); ok {
		per := ls.ActivationWordsPerLayer(tokensPer)
		for i, s := range segs {
			if s.Name != "emb" && s.Name != "head" {
				sc.actWordsPer[i] = per
			}
		}
	}
	return sc, nil
}

// Step drives one training step's layer traversal and parameter refresh:
// the residency walk (forward with prefetch, backward with prefetch,
// activation spill accounting), the gradient stream-out, and the
// master->compute segment transfer (merge or copy) through the staging
// double buffer. It is the scheduled replacement for the trainer's
// whole-vector transfer and computes bit-identical compute parameters.
func (s *OffloadScheduler) Step(compute, master, grads []float32, active bool, dirtyBytes, workers, prefetch, batch int) error {
	// Forward traversal: layer k executes while the prefetch window pulls
	// k+1..k+P into the fast tier.
	last := len(s.segs) - 1
	for k := 0; k <= last; k++ {
		s.res.Use(k, k)
		for j := k + 1; j <= k+prefetch && j <= last; j++ {
			s.res.Prefetch(j, k)
		}
		// Activation spill: block layers write their saved activations to
		// the far tier as forward leaves them behind.
		if w := s.actWordsPer[k]; w > 0 {
			s.actWords += int64(w) * int64(batch)
			staging.RecordWriteback(int64(w) * int64(batch) * 4)
		}
	}
	// Backward traversal in reverse, prefetching downward; spilled
	// activations stream back in before each block's backward.
	for k := last; k >= 0; k-- {
		s.res.Use(k, k)
		for j := k - 1; j >= k-prefetch && j >= 0; j-- {
			s.res.Prefetch(j, k)
		}
		if w := s.actWordsPer[k]; w > 0 {
			s.actWords += int64(w) * int64(batch)
		}
		// Gradient stream-out in backward layer order.
		seg := s.segs[k]
		s.gb.Append(grads[seg.Lo:seg.Hi])
	}
	s.gb.FlushRemaining()
	if _, el := s.gb.Stats(); el > s.prevGradEl {
		staging.RecordWriteback((el - s.prevGradEl) * 4)
		s.prevGradEl = el
	}

	// Parameter refresh: each segment's words route through the staging
	// double buffer in chunks; per-chunk merge/copy is element-wise, so
	// the result bit-equals the whole-vector transfer.
	for k, seg := range s.segs {
		s.res.Use(k, k)
		if err := s.stage(compute[seg.Lo:seg.Hi], master[seg.Lo:seg.Hi], active, dirtyBytes, workers); err != nil {
			return err
		}
		s.transferred += int64(seg.Hi - seg.Lo)
	}

	s.steps++
	s.res.RecordSchedStep()
	if check.Enabled() {
		check.Check(s.res.CheckInvariants)
	}
	return nil
}

// stage routes src through the double buffer into dst, merging or copying
// chunk by chunk.
func (s *OffloadScheduler) stage(dst, src []float32, active bool, dirtyBytes, workers int) error {
	flushed := 0
	off := 0
	for off < len(src) {
		n := s.db.Fill(src[off:])
		if n == 0 {
			return fmt.Errorf("realtrain: staging buffer accepted no data at %d/%d", off, len(src))
		}
		off += n
		if s.db.Full() || off == len(src) {
			staged, err := s.db.Swap()
			if err != nil {
				return err
			}
			out := dst[flushed : flushed+len(staged)]
			if active {
				dba.MergeWords(out, staged, dirtyBytes, workers)
			} else {
				copy(out, staged)
			}
			flushed += len(staged)
			s.db.Complete()
		}
	}
	return nil
}

// Stats returns the scheduler's accounting so far. Heat is copied.
func (s *OffloadScheduler) Stats() SchedStats {
	swaps, stalls := s.db.Stats()
	flushes, gradEl := s.gb.Stats()
	return SchedStats{
		Segments:         len(s.segs),
		ResidentWords:    s.res.ResidentBytes() / 4,
		CapacityWords:    s.res.Capacity() / 4,
		Residency:        s.res.Stats(),
		Heat:             append([]int64(nil), s.res.Heat()...),
		TransferredWords: s.transferred,
		BufferSwaps:      swaps,
		BufferStalls:     stalls,
		GradFlushes:      flushes,
		GradWords:        gradEl,
		ActWords:         s.actWords,
	}
}

// Segments returns the scheduler's segmentation (aliased; callers must not
// mutate).
func (s *OffloadScheduler) Segments() []Segment { return s.segs }

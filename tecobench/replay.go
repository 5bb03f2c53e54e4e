package main

import (
	"fmt"
	"math"
	"math/rand"

	"teco/internal/cache"
	"teco/internal/coherence"
	"teco/internal/core"
	"teco/internal/cxl"
	"teco/internal/dba"
	"teco/internal/mem"
	"teco/internal/parallel"
	"teco/internal/realtrain"
	"teco/internal/tensor"
)

const (
	// replayPairs is how many consecutive fine-tune steps the replay inputs
	// come from.
	replayPairs = 4
	// replayPreSteps shortens pre-training to keep set-up short; the
	// fine-tune steps that follow still take ADAM steps at the fine-tune
	// learning rate, so the dirty-byte mix is Fig 2's small-update regime.
	replayPreSteps = 60
	// replayBER is the faulted arm's link bit-error rate, a point of the
	// faults sweep's grid.
	replayBER = 1e-5
	// replayDirtyBytes is the DBA arms' dirty_bytes.
	replayDirtyBytes = 2
)

// pair is one replay input: an MLP-proxy parameter tensor before and after
// one fine-tune step, the step's delta (the gradient-flush arm's payload),
// and the expected device tensors.
type pair struct {
	old, updated, delta *tensor.Tensor
	merged              []float32 // dba.MergeWords(old, updated) at replayDirtyBytes
}

// arm is one replay configuration.
type arm struct {
	name string
	cfg  core.Config
	grad bool
}

func replayArms(seed int64) []arm {
	return []arm{
		{name: "core.replay_dba", cfg: core.Config{DBA: true, DirtyBytes: replayDirtyBytes}},
		{name: "core.replay_full", cfg: core.Config{}},
		{name: "core.replay_inval", cfg: core.Config{Invalidation: true}},
		{name: "core.replay_grad", grad: true},
		{name: "core.replay_fault", cfg: core.Config{DBA: true, DirtyBytes: replayDirtyBytes,
			Faults: cxl.FaultConfig{Seed: parallel.Seed(seed, 4000), BER: replayBER}}},
	}
}

// replayInputs trains a seeded MLP proxy and records replayPairs
// consecutive fine-tune steps as parameter pairs.
func replayInputs(seed int64, workers int) ([]pair, error) {
	tr, err := realtrain.NewTrainer(realtrain.Config{Seed: parallel.Seed(seed, 3000),
		PreSteps: replayPreSteps, Steps: replayPairs, Workers: workers})
	if err != nil {
		return nil, err
	}
	pairs := make([]pair, replayPairs)
	for i := range pairs {
		before := append([]float32(nil), tr.MasterParams()...)
		if err := tr.Step(); err != nil {
			return nil, err
		}
		after := append([]float32(nil), tr.MasterParams()...)
		delta := make([]float32, len(after))
		for j := range delta {
			delta[j] = after[j] - before[j]
		}
		merged := append([]float32(nil), before...)
		dba.MergeWords(merged, after, replayDirtyBytes, 1)
		pairs[i] = pair{
			old:     tensor.FromSlice("params", before),
			updated: tensor.FromSlice("params", after),
			delta:   tensor.FromSlice("grads", delta),
			merged:  merged,
		}
	}
	return pairs, nil
}

// replayer runs replay rounds: every arm once on one pair.
type replayer struct {
	r     *run
	pairs []pair
	order []int
	arms  []arm
	// first holds each arm's stats from the first traced round.
	first map[string]core.ReplayStats
}

// round replays pair p through every arm and returns each arm's wall time
// in ms, in arm order. Each output is checked bit for bit.
func (x *replayer) round(n int, t *tracer) []float64 {
	p := x.pairs[x.order[n%len(x.order)]]
	walls := make([]float64, 0, len(x.arms))
	root := t.begin("replay.round", -1, n)
	var dbaOut *tensor.Tensor
	for _, a := range x.arms {
		var out *tensor.Tensor
		var st core.ReplayStats
		var err error
		sp := t.begin(a.name, root, n)
		walls = append(walls, timeMs(func() {
			if a.grad {
				out, st, err = core.ReplayGradientFlush(p.delta, a.cfg)
			} else {
				out, st, err = core.ReplayParameterUpdate(p.old, p.updated, a.cfg)
			}
		}))
		t.end(sp)
		x.r.attempt(1)
		if err != nil {
			x.r.wrongAnswer("%s: %v", a.name, err)
			continue
		}
		if t != nil && x.first[a.name] == (core.ReplayStats{}) {
			x.first[a.name] = st
		}
		var want []float32
		switch a.name {
		case "core.replay_dba":
			want, dbaOut = p.merged, out
		case "core.replay_fault":
			want = p.merged
			if dbaOut != nil {
				want = dbaOut.Data()
			}
		case "core.replay_grad":
			want = p.delta.Data()
		default:
			want = p.updated.Data()
		}
		if corruptTensor != nil {
			corruptTensor(out.Data())
		}
		if i := firstBitDiff(out.Data(), want); i >= 0 {
			x.r.wrongAnswer("%s round %d: word %d differs", a.name, n, i)
		}
	}
	t.end(root)
	return walls
}

// firstBitDiff returns the first index where a and b differ bitwise, or -1.
func firstBitDiff(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// loop runs rounds, numbered on from *next, for budget seconds, and returns
// the wall time of every arm call: an operation is one arm replaying one
// pair. The five arms take about the same time, so the median of the many
// arm calls in a run is steadier than that of the few rounds.
func (x *replayer) loop(next *int, t *tracer, budget float64) []float64 {
	var walls []float64
	closedLoop(budget, func() float64 {
		ws := x.round(*next, t)
		*next++
		walls = append(walls, ws...)
		return sum(ws)
	})
	return walls
}

// runReplay is the closed loop of functional protocol replays.
func runReplay(r *run) error {
	// Set-up: pre-train the proxy and record the parameter pairs (every
	// round is identical; the last is used).
	var pairs []pair
	if err := r.setUp(func() (err error) {
		pairs, err = replayInputs(r.seed, r.nproc)
		return err
	}); err != nil {
		return err
	}
	order := rand.New(rand.NewSource(parallel.Seed(r.seed, 3001))).Perm(len(pairs))
	var sums []uint64
	for _, p := range pairs {
		sums = append(sums, bitSum(p.old.Data()), bitSum(p.updated.Data()))
	}
	r.digest = digestOf("replay", parallel.Seed(r.seed, 3000), order, sums)
	x := &replayer{r: r, pairs: pairs, order: order, arms: replayArms(r.seed), first: map[string]core.ReplayStats{}}
	// One untimed round warms the heap and caches before any timing.
	x.round(0, nil)
	next := 1
	if r.tr == nil {
		r.setLoopMetrics(x.loop(&next, nil, r.seconds))
		return nil
	}

	plain := x.loop(&next, nil, r.seconds/2)
	traced := x.loop(&next, r.tr, r.seconds/2)
	r.set("trace.overhead_frac", median(traced)/median(plain)-1, "ratio")
	for _, a := range x.arms {
		r.set(a.name+"_ms", median(r.tr.durations(a.name)), "ms")
	}
	full, red := x.first["core.replay_full"], x.first["core.replay_dba"]
	r.set("core.replay_lines", float64(full.Lines), "count")
	r.set("dba.payload_ratio", float64(red.PayloadBytes)/float64(full.PayloadBytes), "ratio")
	r.set("cxl.retries", float64(x.first["core.replay_fault"].Retries), "count")
	r.set("cxl.poisoned", float64(x.first["core.replay_fault"].Poisoned), "count")
	r.set("coherence.on_demand", float64(x.first["core.replay_inval"].OnDemandTransfers), "count")
	probeReplayLayers(r, pairs[order[0]])
	return nil
}

// bitSum is an order-sensitive checksum of a tensor's bits.
func bitSum(xs []float32) uint64 {
	var h uint64 = 1469598103934665603
	for _, v := range xs {
		h = (h ^ uint64(math.Float32bits(v))) * 1099511628211
	}
	return h
}

// probeReplayLayers times the layers under a replay on the workload's own
// tensor: giant-cache inserts, coherence writes and reads per line in both
// protocol modes, the packet codec, and the DBA aggregator.
func probeReplayLayers(r *run, p pair) {
	lines := p.updated.Lines()
	r.set("cache.insert_ns", median(repeat(3, func() float64 {
		c := cache.New(cache.Config{Name: "giant", SizeBytes: lines * mem.LineSize})
		return timeMs(func() {
			for l := int64(0); l < lines; l++ {
				c.Insert(mem.LineAddr(l), cache.Exclusive)
			}
		}) * 1e6 / float64(lines)
	})), "ns")

	var writes, reads []float64
	for _, mode := range []coherence.Mode{coherence.Update, coherence.Invalidation} {
		for i := 0; i < 3; i++ {
			amap := mem.NewMap()
			base := amap.Allocate("params", mem.RegionGiantCache, p.updated.Bytes()).Base.Line()
			dom := coherence.NewDomain(coherence.Config{Mode: mode, AddrMap: amap})
			for l := int64(0); l < lines; l++ {
				dom.Seed(base+mem.LineAddr(l), coherence.Accelerator)
			}
			writes = append(writes, timeMs(func() {
				for l := int64(0); l < lines; l++ {
					dom.Write(base+mem.LineAddr(l), coherence.CPU)
				}
			})*1e6/float64(lines))
			if mode == coherence.Update {
				dom.FlushCPU()
			}
			reads = append(reads, timeMs(func() {
				for l := int64(0); l < lines; l++ {
					dom.Read(base+mem.LineAddr(l), coherence.Accelerator)
				}
			})*1e6/float64(lines))
		}
	}
	r.set("coherence.write_ns", median(writes), "ns")
	r.set("coherence.read_ns", median(reads), "ns")

	newLines := encodeLines(p.updated)
	oldLines := encodeLines(p.old)
	var frame, payload []byte
	merged := make([]byte, mem.LineSize)
	var dec cxl.Packet
	l := 0
	r.set("cxl.encode_ns", perCallNs(7, func() {
		l = (l + 1) % len(newLines)
		pkt := cxl.Packet{Addr: mem.LineAddr(l), Payload: newLines[l]}
		var err error
		if frame, err = pkt.AppendEncode(frame[:0]); err != nil {
			panic(fmt.Sprintf("encode probe: %v", err))
		}
	}), "ns")
	r.set("cxl.decode_ns", perCallNs(7, func() {
		if err := cxl.DecodeInto(&dec, frame); err != nil {
			panic(fmt.Sprintf("decode probe: %v", err))
		}
	}), "ns")
	r.set("dba.aggregate_ns", perCallNs(7, func() {
		l = (l + 1) % len(newLines)
		payload = dba.AppendAggregate(payload[:0], newLines[l], replayDirtyBytes)
		dba.DisaggregateInto(merged, oldLines[l], payload, replayDirtyBytes)
	}), "ns")
}

// encodeLines returns every cache line of t as bytes.
func encodeLines(t *tensor.Tensor) [][]byte {
	out := make([][]byte, t.Lines())
	for l := range out {
		out[l] = t.EncodeLine(int64(l))
	}
	return out
}

// repeat returns n results of fn.
func repeat(n int, fn func() float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = fn()
	}
	return out
}

package main

import (
	"fmt"

	"teco/internal/core"
	"teco/internal/cxl"
	"teco/internal/experiments"
	"teco/internal/fabric"
	"teco/internal/modelzoo"
	"teco/internal/parallel"
	"teco/internal/sim"
	"teco/internal/tiering"
	"teco/internal/zero"
)

// sweepIDs are the timing-model experiments: no real training, only the
// step engines, the coalesced link streams and the staging, tiering and
// fabric planes. lammps and table8 are left out because they would be most
// of each pass and time the md and lz4 packages instead; table7 is a
// constant table.
var sweepIDs = []string{"table1", "ablation-inval", "fig11", "fig12", "volume",
	"table6", "ablation-dpu", "linkspeed", "faults", "fabric", "fabric-faults",
	"layers", "layers-policy", "tiering", "tiering-policy"}

// passSeed is the seed of pass k: the run seed first, so a run at the
// golden seed diffs its first pass exactly, then seeds split from it.
func passSeed(seed int64, k int) int64 {
	if k == 0 {
		return seed
	}
	return parallel.Seed(seed, k)
}

// digestPasses is how many leading pass seeds the input digest covers.
const digestPasses = 4096

// sweeper runs passes over sweepIDs and checks every table.
type sweeper struct {
	r      *run
	golden map[string][]*experiments.Table
}

func newSweeper(r *run) (*sweeper, error) {
	s := &sweeper{r: r, golden: map[string][]*experiments.Table{}}
	for _, id := range sweepIDs {
		g, err := loadGolden(id)
		if err != nil {
			return nil, err
		}
		s.golden[id] = g
	}
	return s, nil
}

// pass runs every id once at seed and returns the pass wall time in ms.
// With tracing on, each call gets an experiments.<id> span under a
// sweep.pass span.
func (s *sweeper) pass(seed int64, runID int, t *tracer) float64 {
	opt := experiments.Options{Seed: seed, NoMemo: true, Workers: s.r.nproc}
	out := make([][]*experiments.Table, len(sweepIDs))
	errs := make([]error, len(sweepIDs))
	ms := timeMs(func() {
		root := t.begin("sweep.pass", -1, runID)
		for i, id := range sweepIDs {
			sp := t.begin("experiments."+id, root, runID)
			out[i], errs[i] = experiments.ByIDWith(id, opt)
			t.end(sp)
		}
		t.end(root)
	})
	s.r.attempt(int64(len(sweepIDs)))
	for i, id := range sweepIDs {
		if errs[i] != nil {
			s.r.wrongAnswer("%s seed %d: %v", id, seed, errs[i])
		} else if err := checkTables(s.golden[id], out[i], seed); err != nil {
			s.r.wrongAnswer("%s seed %d: %v", id, seed, err)
		}
	}
	return ms
}

// loop runs passes, numbered on from *next, for budget seconds.
func (s *sweeper) loop(next *int, t *tracer, budget float64) []float64 {
	return closedLoop(budget, func() float64 {
		ms := s.pass(passSeed(s.r.seed, *next), *next, t)
		*next++
		return ms
	})
}

// runSweep is the closed loop of passes over the timing-model ids.
func runSweep(r *run) error {
	seeds := make([]int64, digestPasses)
	for k := range seeds {
		seeds[k] = passSeed(r.seed, k)
	}
	r.digest = digestOf("sweep", sweepIDs, seeds)
	// Set-up: decode the goldens and run one warm-up pass at the run seed;
	// the warm-up passes are checked like any other.
	var s *sweeper
	err := r.setUp(func() (err error) {
		if s, err = newSweeper(r); err == nil {
			s.pass(r.seed, 0, nil)
		}
		return err
	})
	if err != nil {
		return err
	}
	next := 1
	if r.tr == nil {
		r.setLoopMetrics(s.loop(&next, nil, r.seconds))
		return nil
	}

	// Traced: half the clock untraced as the overhead reference, half
	// traced.
	plain := s.loop(&next, nil, r.seconds/2)
	traced := s.loop(&next, r.tr, r.seconds/2)
	r.set("trace.overhead_frac", median(traced)/median(plain)-1, "ratio")
	for _, id := range sweepIDs {
		r.set("experiments."+id+"_ms", median(r.tr.durations("experiments."+id)), "ms")
	}
	probeTiming(r)
	return nil
}

// probeTiming times the timing planes' public entry points: both step
// engines over the Table III models at batch {4,8,16}; the layered,
// tiered and fabric planes and the tiering planner at each sweep's headline
// cell; a coalesced link run; and one event through the event engine.
func probeTiming(r *run) {
	models := modelzoo.EvaluationModels()
	batches := []int{4, 8, 16}
	calls := float64(len(models) * len(batches))
	ze := zero.NewEngine()
	r.set("zero.step_us", perCallNs(5, func() {
		for _, m := range models {
			for _, b := range batches {
				ze.Step(m, b)
			}
		}
	})/calls/1e3, "us")
	ce := core.MustEngine(core.Config{DBA: true})
	r.set("core.step_us", perCallNs(5, func() {
		for _, m := range models {
			for _, b := range batches {
				ce.Step(m, b)
			}
		}
	})/calls/1e3, "us")

	gpt2 := modelzoo.GPT2()
	lc := core.LayerConfig{CacheBytes: gpt2.ParamBytes() * 40 / 100, Prefetch: 1}
	r.set("core.step_layered_us", perCallNs(5, func() {
		if _, err := ce.StepLayered(gpt2, 4, lc); err != nil {
			panic(err)
		}
	})/1e3, "us")
	tc := core.TierConfig{DRAMBytes: 3 * gpt2.ParamBytes() * 25 / 100, OptSlots: true, MigrateBudget: 512 << 20}
	r.set("core.run_tiered_us", perCallNs(5, func() {
		if _, _, err := ce.RunTiered(gpt2, 4, tc); err != nil {
			panic(err)
		}
	})/1e3, "us")
	bert := modelzoo.BertLargeCased()
	fc := core.FabricConfig{Replicas: 4, HostPorts: 2, HopLatency: fabric.DefaultHopLatency}
	r.set("core.step_fabric_us", perCallNs(5, func() {
		if _, err := ce.StepFabric(bert, 16, fc); err != nil {
			panic(err)
		}
	})/1e3, "us")
	r.set("tiering.plan_us", planStepNs(gpt2)/1e3, "us")

	link := cxl.NewLink(sim.New(), 0, 0)
	st := cxl.NewStream(link, false)
	const runLines = 1024
	r.set("cxl.push_run_ns_per_line", perCallNs(7, func() {
		st.PushRun(0, runLines*64, runLines, 0, 0, false)
	})/runLines, "ns")

	eng := sim.New()
	h := &nopHandler{}
	r.set("sim.event_ns", perCallNs(7, func() {
		eng.AtHandler(eng.Now()+1, h)
		eng.Run()
	}), "ns")
}

type nopHandler struct{ fired int }

func (h *nopHandler) Fire(sim.Time) { h.fired++ }

// planStepNs times tiering.Controller.PlanStep on the tiering sweep's
// headline shape (GPT-2 parameter and optimizer-state slots per layer, 25%
// fast tier, 512MiB budget), after one round of touches that flips which
// parameter slots are hot, so every plan has migrations to weigh.
func planStepNs(m modelzoo.Model) float64 {
	per := m.ParamBytes() / int64(m.Layers)
	var sizes []int64
	var total int64
	for i := 0; i < m.Layers; i++ {
		p := per
		if i == m.Layers-1 {
			p += m.ParamBytes() - per*int64(m.Layers)
		}
		sizes = append(sizes, p, 2*p)
		total += 3 * p
	}
	ctl, err := tiering.New(tiering.Config{Sizes: sizes, FastBytes: total * 25 / 100,
		Policy: tiering.Heat, BudgetBytes: 512 << 20})
	if err != nil {
		panic(fmt.Sprintf("tiering probe: %v", err))
	}
	phase := 0
	return perCallNs(7, func() {
		for k := 0; k < ctl.Slots(); k++ {
			ctl.Touch(k)
		}
		for k := 0; k < ctl.Slots(); k += 2 {
			if (k/2)%2 == phase%2 {
				ctl.Touch(k)
			}
		}
		phase++
		ctl.PlanStep(-1)
	})
}

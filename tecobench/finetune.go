package main

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"teco/internal/dba"
	"teco/internal/experiments"
	"teco/internal/gnn"
	"teco/internal/kernels"
	"teco/internal/optim"
	"teco/internal/parallel"
	"teco/internal/realtrain"
)

// finetuneID is the accuracy table the finetune workload regenerates: eight
// MLP-proxy fine-tunes and two GCNII runs, the repository's real training.
const finetuneID = "table5"

// proxyNames are table5's proxy rows, in grid order.
var proxyNames = []string{"GPT2", "Albert-xxlarge-v1", "Bert-large-cased", "T5-large"}

// runFinetune regenerates table5 with memoization off on an nproc-wide
// pool, once per loop turn until --seconds have passed (one turn takes
// longer than that on a two-core machine, so one regeneration is usual).
func runFinetune(r *run) error {
	// Set-up: decode the golden the run is checked against, and warm the
	// training path with a short pre-training phase.
	var golden []*experiments.Table
	err := r.setUp(func() (err error) {
		if golden, err = loadGolden(finetuneID); err != nil {
			return err
		}
		_, err = realtrain.Pretrain(realtrain.Config{Seed: r.seed, PreSteps: 20})
		return err
	})
	if err != nil {
		return err
	}
	r.digest = digestOf("finetune", finetuneID, r.seed)
	opt := experiments.Options{Seed: r.seed, NoMemo: true, Workers: r.nproc}

	regenerate := func() ([]*experiments.Table, float64) {
		var tabs []*experiments.Table
		var err error
		ms := timeMs(func() { tabs, err = experiments.ByIDWith(finetuneID, opt) })
		r.attempt(1)
		if err != nil {
			r.wrongAnswer("table5: %v", err)
			return nil, ms
		}
		if err := checkTables(golden, tabs, r.seed); err != nil {
			r.wrongAnswer("table5 seed %d: %v", r.seed, err)
		}
		return tabs, ms
	}

	if r.tr == nil {
		r.setLoopMetrics(closedLoop(r.seconds, func() float64 {
			_, ms := regenerate()
			return ms
		}))
		return nil
	}

	// Traced: the untraced regeneration is the overhead reference and the
	// answer the traced drive must reproduce cell for cell.
	ref, refMs := regenerate()
	if ref == nil {
		return nil
	}
	var rows [][]string
	var tr *realtrain.Trainer
	driveMs := timeMs(func() { rows, tr = tracedTable5(r) })
	r.attempt(1)
	if err := sameRows(ref[0].Rows, rows); err != nil {
		r.wrongAnswer("traced table5 drive: %v", err)
	}
	r.set("trace.overhead_frac", driveMs/refMs-1, "ratio")
	probeTraining(r, tr)
	return nil
}

// tracedTable5 runs table5's five grid points itself, through the public
// training calls, on an nproc-wide pool, with a span around every call. It
// returns the table rows it computed and one trained proxy for the probes.
func tracedTable5(r *run) ([][]string, *realtrain.Trainer) {
	t := r.tr
	seed := r.seed
	root := t.begin("finetune.table5", -1, 0)
	start := time.Now()
	var last *realtrain.Trainer
	train := func(cfg realtrain.Config, parent, runID int) realtrain.Result {
		cfg.Workers = r.nproc
		sp := t.begin("realtrain.pretrain", parent, runID)
		pre, err := realtrain.Pretrain(cfg)
		t.end(sp)
		if err != nil {
			panic(err)
		}
		tr, err := realtrain.NewTrainerFromPre(cfg, pre)
		if err != nil {
			panic(err)
		}
		for !tr.Done() {
			sp := t.begin("realtrain.step", parent, runID)
			err := tr.Step()
			t.end(sp)
			if err != nil {
				panic(err)
			}
		}
		if runID == 0 {
			last = tr
		}
		return tr.Result()
	}
	pts, err := parallel.Run(context.Background(), r.nproc, len(proxyNames)+1, func(_ context.Context, i int) ([][]string, error) {
		pt := t.begin("finetune.grid_point", root, i)
		defer t.end(pt)
		if i == len(proxyNames) {
			sp := t.begin("gnn.train", pt, i)
			gBase := gnn.Train(gnn.TrainConfig{Epochs: 200, Seed: seed})
			t.end(sp)
			sp = t.begin("gnn.train", pt, i)
			gRed := gnn.Train(gnn.TrainConfig{Epochs: 200, Seed: seed, DBA: true, ActAfterSteps: 100})
			t.end(sp)
			return [][]string{{"GCNII", "Accuracy", pct(gBase.TestAcc), pct(gRed.TestAcc)}}, nil
		}
		s := seed + int64(i)*100
		steps := experiments.RealTrainSteps
		base := train(realtrain.Config{Steps: steps, Seed: s}, pt, i)
		red := train(realtrain.Config{Steps: steps, Seed: s, DBA: true, ActAfterSteps: steps / 2}, pt, i)
		return [][]string{
			{proxyNames[i], "Accuracy", pct(base.FinalAcc), pct(red.FinalAcc)},
			{proxyNames[i], "Perplexity", f2(base.Perplexity), f2(red.Perplexity)},
		}, nil
	})
	wall := time.Since(start).Seconds()
	t.end(root)
	if err != nil {
		panic(err)
	}
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, p...)
	}

	steps := t.durations("realtrain.step")
	r.set("realtrain.pretrain_s", median(t.durations("realtrain.pretrain"))/1e3, "s")
	r.set("realtrain.step_us", median(steps)*1e3, "us")
	r.set("realtrain.steps", float64(len(steps)), "count")
	r.set("gnn.train_s", median(t.durations("gnn.train"))/1e3, "s")
	busy := sum(t.durations("finetune.grid_point")) / 1e3
	r.set("parallel.idle_frac", 1-busy/(float64(r.nproc)*wall), "ratio")
	return rows, last
}

// probeTraining times the training layers' public functions on the
// workload's own shapes: the GCNII pass on table5's graph, ADAM on a
// proxy-sized vector, the MLP proxy's matvec and back-projection, and the
// DBA merge and scan over a trained proxy's parameters.
func probeTraining(r *run, tr *realtrain.Trainer) {
	g := gnn.NewGraph(gnn.GraphConfig{Seed: r.seed})
	m := gnn.NewGCNII(len(g.Features[0]), 64, g.Classes, 8, r.seed+1)
	grads := make([]float32, m.NumParams())
	r.set("gnn.loss_and_grad_ms", perCallNs(5, func() { m.LossAndGrad(m.Params, g, grads) })/1e6, "ms")

	master := append([]float32(nil), tr.MasterParams()...)
	compute := append([]float32(nil), tr.ComputeParams()...)
	n := len(master)
	ad := optim.MustAdam(n, optim.AdamConfig{LR: 1e-5, Workers: r.nproc})
	params := append([]float32(nil), master...)
	g32 := make([]float32, n)
	for i := range g32 {
		g32[i] = master[i] - compute[i] + 1e-4
	}
	r.set("optim.adam_ns_per_param", perCallNs(7, func() {
		if err := ad.Step(params, g32); err != nil {
			panic(err)
		}
	})/float64(n), "ns")

	// The MLP proxy's layer shapes: Dim x Hidden in, Hidden x Classes out.
	cfg := tr.Config()
	dim, hidden, classes := 32, cfg.Hidden, 8
	x := params[:dim]
	w := params[dim : dim+dim*hidden]
	acc := make([]float32, hidden)
	r.set("kernels.matvec_ns_per_mac", perCallNs(7, func() { kernels.AddMatVec(acc, x, w, dim, hidden) })/float64(dim*hidden), "ns")
	h := params[:hidden]
	dy := params[hidden : hidden+classes]
	w2 := params[1024 : 1024+hidden*classes]
	gw := make([]float32, hidden*classes)
	dx := make([]float32, hidden)
	r.set("kernels.backproj_ns_per_mac", perCallNs(7, func() { kernels.BackProjSet(gw, dx, h, dy, w2, hidden, classes) })/float64(hidden*classes), "ns")

	// Merging is idempotent, so repeated calls on one buffer do equal work.
	dst := append([]float32(nil), compute...)
	r.set("dba.merge_ns_per_word", perCallNs(7, func() { dba.MergeWords(dst, master, 2, r.nproc) })/float64(n), "ns")
	r.set("dba.scan_ns_per_word", perCallNs(7, func() { dba.ScanChanged(compute, master, r.nproc) })/float64(n), "ns")
}

// sameRows compares the traced drive's rows with the regenerated table's.
func sameRows(want, got [][]string) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if fmt.Sprint(want[i]) != fmt.Sprint(got[i]) {
			return fmt.Errorf("row %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// pct and f2 format cells exactly as internal/experiments does.
func pct(v float64) string { return strconv.FormatFloat(100*v, 'f', 1, 64) + "%" }
func f2(v float64) string  { return strconv.FormatFloat(v, 'f', 2, 64) }

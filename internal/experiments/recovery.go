package experiments

import (
	"fmt"
	"os"

	"teco/internal/core"
	"teco/internal/phases"
	"teco/internal/realtrain"
)

// recoveryTrainConfig is the (deliberately short) fine-tuning run every
// recovery-sweep cell executes: long enough to cross DBA activation and
// several checkpoint intervals, short enough that the interval x rate grid
// finishes in seconds.
func recoveryTrainConfig(seed int64) realtrain.Config {
	return realtrain.Config{
		Steps: recoverySteps, PreSteps: 30, Seed: seed,
		DBA: true, ActAfterSteps: 10, SampleEvery: 5,
	}
}

// recoverySteps is the recovery run's length.
const recoverySteps = 40

// recoveryGrid returns the swept checkpoint intervals and per-step SDC
// rates. Explicit options collapse the corresponding axis to one value.
func recoveryGrid(opt Options) (intervals []int, rates []float64) {
	intervals = []int{5, 10, 25}
	if opt.CkptInterval > 0 {
		intervals = []int{opt.CkptInterval}
	}
	rates = []float64{0, 0.05, 0.15}
	return intervals, rates
}

// RecoverySweep is the checkpoint-interval x SDC-rate robustness grid: per
// cell, a checkpointed core.Session runs the short fine-tuning job with
// silent-data-corruption injection, and the table reports the checkpoint
// volume, every detection/rollback, the replayed-step cost, the recovery
// wall time, and — the property the whole subsystem exists for — whether
// the recovered run finished bit-identical to a fault-free reference.
// With CrashAt > 0 each cell additionally kills the run at that step and
// restores it from disk (core.CrashRun).
func RecoverySweep(opt Options) *Table {
	t := &Table{
		ID:    "recovery",
		Title: "Checkpoint/recovery sweep: SDC rollback-and-replay cost (real fine-tuning proxy)",
		Header: []string{"Interval", "SDC rate", "Ckpts", "Ckpt vol", "Detected",
			"Rollbacks", "Replayed", "Recovery", "Bit-identical"},
	}
	ref := runTrain(opt, recoveryTrainConfig(opt.Seed))

	intervals, rates := recoveryGrid(opt)
	type cell struct {
		interval int
		rate     float64
	}
	var cells []cell
	for _, interval := range intervals {
		for _, rate := range rates {
			cells = append(cells, cell{interval, rate})
		}
	}
	// Each cell owns a private checkpoint directory and session, so the
	// interval x rate grid runs concurrently on the sweep pool; the trainer
	// inside every session inherits the Workers knob (crash/restore under
	// the parallel trainer is part of the determinism surface).
	rows, err := gridErr(opt, len(cells), func(i int) ([]string, error) {
		interval, rate := cells[i].interval, cells[i].rate
		dir, err := os.MkdirTemp(opt.CkptDir, "teco-recovery-*")
		if err != nil {
			return nil, fmt.Errorf("cannot create checkpoint directory: %w", err)
		}
		defer os.RemoveAll(dir)
		train := recoveryTrainConfig(opt.Seed)
		train.Workers = opt.Workers
		cfg := core.SessionConfig{
			Train:    train,
			Dir:      dir,
			Interval: interval,
			SDC:      core.SDCPlan{Seed: opt.Seed + int64(interval), Rate: rate},
		}
		res, stats, err := runRecoveryCell(cfg, opt.CrashAt)
		if err != nil {
			return nil, fmt.Errorf("interval %d rate %.2f: %w", interval, rate, err)
		}
		identical := "yes"
		if res.FinalLoss != ref.FinalLoss || res.FinalAcc != ref.FinalAcc ||
			len(res.Samples) != len(ref.Samples) {
			identical = "NO"
		} else {
			for i := range res.Samples {
				if res.Samples[i] != ref.Samples[i] {
					identical = "NO"
					break
				}
			}
		}
		return []string{
			fmt.Sprint(interval),
			f2(rate),
			fmt.Sprint(stats.CkptWrites),
			mb(stats.CkptBytes),
			fmt.Sprint(stats.SDCDetected),
			fmt.Sprint(stats.Rollbacks),
			fmt.Sprint(stats.ReplayedSteps),
			ms(stats.RecoveryTime.Milliseconds()),
			identical,
		}, nil
	})
	if err != nil {
		t.Note("%v", err)
		return t
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	if opt.CrashAt > 0 {
		t.Note("each cell additionally killed at step %d and restored from disk (crash-injection harness)", opt.CrashAt)
	}
	t.Note("detections roll back to the newest CRC-intact checkpoint and replay; shorter intervals buy fewer replayed steps for more checkpoint volume — every cell must stay bit-identical to the fault-free reference")
	return t
}

// runRecoveryCell executes one grid cell: a plain session run, or — when a
// crash step is requested — the kill/restore harness.
func runRecoveryCell(cfg core.SessionConfig, crashAt int) (realtrain.Result, phases.RecoveryStats, error) {
	if crashAt > 0 {
		return core.CrashRun(cfg, crashAt)
	}
	s, err := core.NewSession(cfg)
	if err != nil {
		return realtrain.Result{}, phases.RecoveryStats{}, err
	}
	res, err := s.Run()
	if err != nil {
		return realtrain.Result{}, phases.RecoveryStats{}, err
	}
	return res, s.Stats(), nil
}

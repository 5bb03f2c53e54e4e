// Command tecobench is the repository's benchmark. It runs one named
// workload from a seed, checks every output for correctness, and prints the
// workload's metrics as the last line of standard output:
//
//	bash tecobench/run.sh --workload sweep --seed 42 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with tracing
// off; with --trace 1 it records spans around the calls into each layer and
// prints the per-layer metrics instead. BENCHMARK.json at the repository
// root declares the workloads and metrics; METRICS.md beside this file says
// which end-to-end metric each layer metric should move.
//
// It must run from the repository root: it reads the seed-42 goldens under
// internal/conformance/testdata/golden and writes its records, spans and
// scratch directories under .bench_build/tecobench.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
)

// outDir holds records, span files and the scratch cache directories.
const outDir = ".bench_build/tecobench"

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// digest identifies the run's generated inputs (printed separately).
	digest string
}

// run is the state one workload execution reports into.
type run struct {
	workload string
	seed     int64
	seconds  float64
	nproc    int
	// tr is nil in the untraced run.
	tr  *tracer
	log io.Writer
	// scratch is this run's private directory under outDir.
	scratch string

	mu        sync.Mutex
	attempted int64
	failed    int64
	wrong     int64
	metrics   map[string]metric
	digest    string
}

// set records a metric.
func (r *run) set(name string, value float64, unit string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// attempt counts n attempted operations.
func (r *run) attempt(n int64) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

// fail counts a failed operation that returned no answer (refused, timed
// out, errored).
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if r.failed <= 20 {
		fmt.Fprintf(r.log, "failed: "+format+"\n", args...)
	}
}

// wrongAnswer counts a failed operation whose answer was wrong. Any wrong
// answer makes the whole run incorrect.
func (r *run) wrongAnswer(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	r.wrong++
	if r.wrong <= 20 {
		fmt.Fprintf(r.log, "WRONG: "+format+"\n", args...)
	}
}

// setupRounds is how many times a run repeats its set-up; setup_s is the
// median, so one slow round does not move it.
const setupRounds = 5

// setUp runs fn setupRounds times and, in the untraced run, records the
// median wall time as setup_s.
func (r *run) setUp(fn func() error) error {
	var secs []float64
	for i := 0; i < setupRounds; i++ {
		var err error
		secs = append(secs, timeMs(func() { err = fn() })/1e3)
		if err != nil {
			return err
		}
	}
	if r.tr == nil {
		r.set("setup_s", median(secs), "s")
	}
	return nil
}

// corruptPayload and corruptTensor, when a test sets them, alter a served
// payload or a replayed tensor before it is checked, to show that the
// checks catch a wrong answer.
var (
	corruptPayload func([]byte)
	corruptTensor  func([]float32)
)

// workloads maps a workload name to the function that runs it. Each sets
// the metrics of the mode it runs in (r.tr != nil: per-layer).
var workloads = map[string]func(*run) error{
	"finetune": runFinetune,
	"sweep":    runSweep,
	"serve":    runServe,
	"replay":   runReplay,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: finetune, sweep, serve or replay")
		seed    = flag.Int64("seed", 42, "input seed")
		seconds = flag.Float64("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	)
	flag.Parse()
	res, err := execute(*name, *seed, *seconds, *trace == 1, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tecobench:", err)
		os.Exit(2)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tecobench:", err)
		os.Exit(2)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs one workload and returns its result line. Diagnostics, the
// environment record, the input digest and the self-time table go to log.
// An error means the run could not be carried out at all (no result).
func execute(name string, seed int64, seconds float64, traced bool, log io.Writer) (*result, error) {
	runWorkload, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if _, err := os.Stat(goldenDir); err != nil {
		return nil, fmt.Errorf("run from the repository root: %v", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(outDir, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	r := &run{workload: name, seed: seed, seconds: seconds, nproc: runtime.NumCPU(),
		log: log, scratch: scratch, metrics: map[string]metric{}}
	if traced {
		r.tr = newTracer()
	}
	rt0 := readRuntime()
	if err := runWorkload(r); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if traced {
		rt1 := readRuntime()
		r.set("runtime.alloc_mb", float64(rt1.allocBytes-rt0.allocBytes)/(1<<20), "MB")
		r.set("runtime.gc_pause_ms", float64(rt1.pauseNs-rt0.pauseNs)/1e6, "ms")
		fillUnexercised(r)
	} else {
		r.set("peak_rss_mb", peakRSSMB(), "MB")
		r.set("ok_frac", float64(r.attempted-r.failed)/float64(max(r.attempted, 1)), "ratio")
	}
	res := &result{Correct: r.wrong == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: r.metrics, digest: r.digest}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("%s attempted no operation", name)
	}
	if err := writeRecord(r, res, traced); err != nil {
		return nil, err
	}
	return res, nil
}

// fillUnexercised reports 0 for every per-layer metric the workload never
// calls: the traced run prints the whole per-layer list on every workload,
// and a layer a workload does not reach spends no time in it.
func fillUnexercised(r *run) {
	for name, unit := range perLayerUnits {
		if _, ok := r.metrics[name]; !ok {
			r.set(name, 0, unit)
		}
	}
}

// writeRecord prints the environment and input digest and writes the run's
// record (and, when traced, its spans and self-time table) under outDir.
func writeRecord(r *run, res *result, traced bool) error {
	rec := map[string]any{"workload": r.workload, "seed": r.seed, "trace": traced,
		"input_digest": r.digest, "env": environment(r.seed)}
	head, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintln(r.log, string(head))
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", r.workload, r.seed, b2i(traced)))
	if traced {
		rows := r.tr.selfTimes()
		fmt.Fprintln(r.log, "per-layer self time:")
		printSelfTimes(r.log, rows)
		if err := r.tr.writeSpans(base+".spans.json", rows); err != nil {
			return err
		}
	}
	rec["result"] = res
	body, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".json", body, 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync/atomic"
	"testing"
)

// The benchmark runs from the repository root.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// declared reads BENCHMARK.json's metric names.
func declared(t *testing.T) (e2e, layer []string) {
	t.Helper()
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name+" "+m.Unit)
	}
	sort.Strings(e2e)
	sort.Strings(layer)
	return e2e, layer
}

func printed(res *result) []string {
	var out []string
	for name, m := range res.Metrics {
		out = append(out, name+" "+m.Unit)
	}
	sort.Strings(out)
	return out
}

func sameList(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: printed %d metrics %v, declared %d %v", what, len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: printed %q where BENCHMARK.json declares %q", what, got[i], want[i])
		}
	}
}

// TestShortRunsPrintDeclaredMetrics runs every workload for the shortest
// time (one operation) in both modes and requires the printed metric names
// and units to be exactly the declared ones, with every check passing. The
// finetune workload regenerates table5 at full size, which takes minutes;
// -short skips it.
func TestShortRunsPrintDeclaredMetrics(t *testing.T) {
	e2e, layer := declared(t)
	for _, w := range []string{"sweep", "serve", "replay", "finetune"} {
		if w == "finetune" && testing.Short() {
			continue
		}
		for _, traced := range []bool{false, true} {
			res, err := execute(w, 42, 0.05, traced, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if traced {
				want = layer
			}
			sameList(t, w, printed(res), want)
			if !traced {
				for name, m := range res.Metrics {
					if m.Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w, name)
					}
				}
			}
		}
	}
}

// TestInputDigest shows a seed fixes a workload's inputs: the same seed
// gives the same digest, another seed a different one.
func TestInputDigest(t *testing.T) {
	for _, w := range []string{"sweep", "serve", "replay"} {
		a, errA := execute(w, 42, 0.01, false, io.Discard)
		b, errB := execute(w, 42, 0.01, false, io.Discard)
		c, errC := execute(w, 43, 0.01, false, io.Discard)
		if errA != nil || errB != nil || errC != nil {
			t.Fatalf("%s: %v %v %v", w, errA, errB, errC)
		}
		if a.digest != b.digest || a.digest == c.digest {
			t.Errorf("%s: digests seed 42 %s, %s; seed 43 %s", w, a.digest, b.digest, c.digest)
		}
	}
}

// TestWrongAnswersFail flips one byte of a served payload, and one bit of a
// replayed tensor, and expects the run to report a wrong answer.
func TestWrongAnswersFail(t *testing.T) {
	defer func() { corruptPayload, corruptTensor = nil, nil }()
	var served, replayed atomic.Int32
	corruptPayload = func(b []byte) {
		if served.Add(1) != 1 {
			return
		}
		for i, c := range b {
			if c >= '0' && c <= '8' {
				b[i] = c + 1
				return
			}
		}
	}
	corruptTensor = func(x []float32) {
		if replayed.Add(1) == 1 {
			x[len(x)/2] = -x[len(x)/2]
		}
	}
	for _, w := range []string{"serve", "replay"} {
		res, err := execute(w, 42, 0.05, false, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a corrupted answer passed (correct=%v failed=%d)", w, res.Correct, res.Failed)
		}
	}
	if served.Load() == 0 || replayed.Load() == 0 {
		t.Fatalf("no corruption injected (served %d, replayed %d)", served.Load(), replayed.Load())
	}
}

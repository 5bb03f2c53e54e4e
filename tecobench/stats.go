package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified). It is 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// perCallNs times fn and returns the median, over batches, of the mean
// nanoseconds per call. The batch size is calibrated so one batch takes
// about 10ms, which keeps timer resolution out of sub-microsecond calls.
func perCallNs(batches int, fn func()) float64 {
	fn() // warm caches and lazily built state
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(t0); d >= 10*time.Millisecond || n >= 1<<24 {
			break
		}
		n *= 2
	}
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// closedLoop runs op back to back, at least once, until budget seconds
// have passed, and returns the wall times in ms that op reports.
func closedLoop(budget float64, op func() float64) []float64 {
	var walls []float64
	t0 := time.Now()
	for len(walls) == 0 || time.Since(t0).Seconds() < budget {
		walls = append(walls, op())
	}
	return walls
}

// setLoopMetrics records a sequential closed loop's end-to-end metrics:
// operations per second of operation time, and the median operation.
func (r *run) setLoopMetrics(walls []float64) {
	r.set("ops_per_s", float64(len(walls))/(sum(walls)/1e3), "1/s")
	r.set("op_p50_ms", median(walls), "ms")
}

// timeMs runs fn and returns its wall time in milliseconds.
func timeMs(fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// peakRSSMB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.Sys) / (1 << 20)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runtimeSample is the allocation and GC-pause counter pair the traced run
// reports as deltas.
type runtimeSample struct{ allocBytes, pauseNs uint64 }

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSample{allocBytes: ms.TotalAlloc, pauseNs: ms.PauseTotalNs}
}

// environment describes the machine and build a result was measured on.
func environment(seed int64) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit(),
		"seed":       seed,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the checked-out git revision, or, when the source tree is not
// a git repository, a digest of every Go source file under the working
// directory, so two records can still be matched to one tree.
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// digestOf hashes the generated inputs of a run; equal digests mean equal
// inputs.
func digestOf(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%v\x00", p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

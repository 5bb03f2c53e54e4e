package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of a public function boundary. Start and End are nanoseconds since the
// tracer was created; Parent is the index of the enclosing span (-1 for a
// root); Run groups the spans of one top-level operation (one request, one
// sweep pass, one replay round, one grid point).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
}

// tracer keeps every span in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op, so the workloads call it
// unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id, or -1 when tracing is off.
func (t *tracer) begin(name string, parent, run int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Run: run})
	return len(t.spans) - 1
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// durations returns the closed spans' durations by name, in milliseconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its children cover; children of one
// parent may overlap (concurrent grid points), so the covered part is the
// union of their intervals clipped to the parent.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	rows := map[string]*layerTime{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		dur := s.End - s.Start
		self := dur - covered(children[i], s.Start, s.End)
		r := rows[s.Name]
		if r == nil {
			r = &layerTime{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.TotalMs += float64(dur) / 1e6
		r.SelfMs += float64(self) / 1e6
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// printSelfTimes writes the per-layer self-time table.
func printSelfTimes(w io.Writer, rows []layerTime) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f\n", r.Name, r.Count, r.TotalMs, r.SelfMs)
	}
}

// writeSpans writes every recorded span and the self-time table as JSON.
func (t *tracer) writeSpans(path string, rows []layerTime) error {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans    []span      `json:"spans"`
		SelfTime []layerTime `json:"self_time"`
	}{spans, rows})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

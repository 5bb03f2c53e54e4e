package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"teco/internal/experiments"
	"teco/internal/parallel"
)

// stringSamples are valid non-default values for the string knobs, whose
// valid set the table does not spell out.
var stringSamples = map[string]string{"layer_policy": "fifo", "tier_policy": "lru"}

// knobSample returns a valid, non-zero, non-default wire value for k.
func knobSample(t *testing.T, k *experiments.Knob) string {
	t.Helper()
	switch k.Field(&experiments.Options{}).(type) {
	case *string:
		s, ok := stringSamples[k.Name]
		if !ok {
			t.Fatalf("string knob %s has no sample in stringSamples", k.Name)
		}
		return s
	case *bool:
		return "true"
	case *float64:
		return strconv.FormatFloat((k.Min+k.Max)/2, 'g', -1, 64)
	}
	if k.Min == 0 && k.Max == 0 {
		return "7"
	}
	return strconv.Itoa(int(k.Min) + 1)
}

// recordingServer builds a server whose runner records the options of the
// last computation and returns a stub table.
func recordingServer(t *testing.T, got *experiments.Options) *Server {
	return newTestServer(t, func(c *Config) {
		c.Workers = 3
		c.Run = func(_ context.Context, id string, opt experiments.Options) ([]*experiments.Table, error) {
			opt.Ctx = nil
			*got = opt
			return []*experiments.Table{{ID: id, Title: "stub", Header: []string{"a"}}}, nil
		}
	})
}

// postRun issues POST /run with a JSON body.
func postRun(t *testing.T, h http.Handler, body map[string]any) (Response, int) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(raw)))
	var resp Response
	if w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad envelope: %v\n%s", err, w.Body.Bytes())
		}
	}
	return resp, w.Code
}

// TestRunKnobsReachOptions: every Result knob parses from both the GET
// query and the POST JSON body and lands in its own Options field, next to
// the server's scheduling knobs and nothing else.
func TestRunKnobsReachOptions(t *testing.T) {
	var viaGet, viaPost experiments.Options
	get, post := recordingServer(t, &viaGet), recordingServer(t, &viaPost)
	for i := range experiments.Knobs {
		k := &experiments.Knobs[i]
		if k.Class != experiments.Result {
			continue
		}
		sample := knobSample(t, k)
		want := experiments.Options{Workers: 3}
		if err := k.Set(&want, sample); err != nil {
			t.Fatal(err)
		}
		if _, code := getRun(t, get.Handler(), "id=layers&"+k.Name+"="+sample); code != http.StatusOK {
			t.Fatalf("GET %s=%s: HTTP %d", k.Name, sample, code)
		}
		typed := reflect.ValueOf(k.Field(&want)).Elem().Interface()
		if _, code := postRun(t, post.Handler(), map[string]any{"id": "layers", k.Name: typed}); code != http.StatusOK {
			t.Fatalf("POST %s=%v: HTTP %d", k.Name, typed, code)
		}
		if !reflect.DeepEqual(viaGet, want) {
			t.Fatalf("GET %s=%s: options %+v, want %+v", k.Name, sample, viaGet, want)
		}
		if !reflect.DeepEqual(viaPost, want) {
			t.Fatalf("POST %s=%v: options %+v, want %+v", k.Name, typed, viaPost, want)
		}
	}
}

// TestSchedulingKnobsStayServerSide: a client cannot set the server's
// scheduling knobs.
func TestSchedulingKnobsStayServerSide(t *testing.T) {
	var got experiments.Options
	s := recordingServer(t, &got)
	if _, code := getRun(t, s.Handler(), "id=layers&workers=9&no_memo=true&coalesce=false&ckpt_dir=x"); code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if !reflect.DeepEqual(got, experiments.Options{Workers: 3}) {
		t.Fatalf("scheduling knobs read from the wire: %+v", got)
	}
}

// TestRunKnobBoundsRejectedBeforeAdmission: a value just outside either
// bound of any bounded knob is a 400 on both transports, and never takes a
// gate slot or runs a computation.
func TestRunKnobBoundsRejectedBeforeAdmission(t *testing.T) {
	var got experiments.Options
	s := recordingServer(t, &got)
	for i := range experiments.Knobs {
		k := &experiments.Knobs[i]
		if k.Class != experiments.Result || (k.Min == 0 && k.Max == 0) {
			continue
		}
		for _, v := range []float64{k.Min - 1, k.Max + 1} {
			wire := strconv.FormatFloat(v, 'f', -1, 64)
			if _, code := getRun(t, s.Handler(), "id=layers&"+k.Name+"="+wire); code != http.StatusBadRequest {
				t.Fatalf("GET %s=%s: HTTP %d, want 400", k.Name, wire, code)
			}
			if _, code := postRun(t, s.Handler(), map[string]any{"id": "layers", k.Name: v}); code != http.StatusBadRequest {
				t.Fatalf("POST %s=%s: HTTP %d, want 400", k.Name, wire, code)
			}
		}
	}
	for _, q := range []string{"id=layers&cache_pct=200", "id=fabric-faults&replicas=2&kill_port=3", "id=layers&layer_policy=mru"} {
		if _, code := getRun(t, s.Handler(), q); code != http.StatusBadRequest {
			t.Fatalf("GET %s: HTTP %d, want 400", q, code)
		}
	}
	if st := s.Stats(); st.Computes != 0 || st.Requests != 0 {
		t.Fatalf("rejected knobs were admitted: %+v", st)
	}
}

// TestAliasesShareTheirExperimentsKey: the server accepts the CLI's
// aliases, and an alias has its experiment's identity.
func TestAliasesShareTheirExperimentsKey(t *testing.T) {
	var got experiments.Options
	s := recordingServer(t, &got)
	for id, alias := range map[string]string{"fig11": "table4", "fig2": "fig2a"} {
		cold, code := getRun(t, s.Handler(), "id="+id+"&seed=3")
		if code != http.StatusOK {
			t.Fatalf("%s: HTTP %d", id, code)
		}
		warm, code := getRun(t, s.Handler(), "id="+alias+"&seed=3")
		if code != http.StatusOK || !warm.Cached || warm.Key != cold.Key {
			t.Fatalf("%s: HTTP %d cached=%v key %s, want %s's key %s", alias, code, warm.Cached, warm.Key, id, cold.Key)
		}
	}
}

// TestGeneratorPanicIsolated: a generator that panics — directly or in a
// sweep-pool worker — fails its request with a 500, is never cached, and
// leaves the daemon serving.
func TestGeneratorPanicIsolated(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Run = func(ctx context.Context, id string, _ experiments.Options) ([]*experiments.Table, error) {
			switch id {
			case "fig12":
				panic("generator bug")
			case "volume":
				parallel.RunCtx(ctx, 2, 8, func(_ context.Context, i int) (int, error) {
					if i == 5 {
						panic("grid point bug")
					}
					return i, nil
				})
			}
			return []*experiments.Table{{ID: id, Title: "stub", Header: []string{"a"}}}, nil
		}
	})
	for round := 0; round < 2; round++ {
		for _, id := range []string{"fig12", "volume"} {
			if _, code := getRun(t, s.Handler(), "id="+id+"&seed=1"); code != http.StatusInternalServerError {
				t.Fatalf("round %d %s: HTTP %d, want 500", round, id, code)
			}
		}
	}
	if st := s.Stats(); st.Computes != 4 || st.Hits != 0 {
		t.Fatalf("stats %+v: a panicked computation was cached", st)
	}
	if _, code := getRun(t, s.Handler(), "id=table1&seed=1"); code != http.StatusOK {
		t.Fatalf("request after the panics: HTTP %d", code)
	}
}

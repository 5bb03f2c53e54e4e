package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"teco/internal/diskcache"
	"teco/internal/experiments"
	"teco/internal/parallel"
	"teco/internal/server"
)

const (
	// serveClients is the closed-loop client count: at most nproc (two)
	// callers that each wait for their reply, as tecosimd's scripted
	// clients do.
	serveClients = 2
	// warmSeeds is how many seeds per experiment id are filled into the
	// cache at set-up; the warm keys are sweepIDs x warmSeeds.
	warmSeeds = 2
	// coldEvery makes one request in coldEvery a cold one.
	coldEvery = 11
	// coldSampleEvery picks one cold response in coldSampleEvery for the
	// direct recomputation check.
	coldSampleEvery = 16
	// digestRequests is how many leading requests of each client script the
	// input digest covers.
	digestRequests = 4096
)

// key is one (experiment id, seed) request.
type key struct {
	id   string
	seed int64
}

// request is one entry of a client script.
type request struct {
	key
	cold   bool
	sample bool
}

// script is one client's deterministic request stream. It runs in blocks
// of coldEvery requests with exactly one cold request at a random place in
// each block, and the cold requests walk the experiment ids in shuffled
// rounds, so every run sees the same cold share and the same id mix.
type script struct {
	rng      *rand.Rand
	warm     []key
	client   int
	coldBase int64
	n, colds int
	coldAt   int
	ids      []string
}

func newScript(seed int64, client int, warm []key) *script {
	return &script{rng: rand.New(rand.NewSource(parallel.Seed(seed, 1000+client))), warm: warm,
		client: client, coldBase: parallel.Seed(seed, 2000+client)}
}

// runID numbers the request next returned last, unique across clients, so
// the spans of one request share it.
func (s *script) runID() int { return (s.n-1)*serveClients + s.client }

// next draws the client's next request. Cold requests get a seed no other
// request uses, so each is a cache miss computed and stored by the server.
func (s *script) next() request {
	pos := s.n % coldEvery
	if pos == 0 {
		s.coldAt = s.rng.Intn(coldEvery)
	}
	s.n++
	if pos != s.coldAt {
		return request{key: s.warm[s.rng.Intn(len(s.warm))]}
	}
	if len(s.ids) == 0 {
		s.ids = append([]string(nil), sweepIDs...)
		s.rng.Shuffle(len(s.ids), func(i, j int) { s.ids[i], s.ids[j] = s.ids[j], s.ids[i] })
	}
	id := s.ids[0]
	s.ids = s.ids[1:]
	seed := parallel.Seed(s.coldBase, s.colds)
	s.colds++
	return request{key: key{id, seed}, cold: true, sample: s.rng.Intn(coldSampleEvery) == 0}
}

// warmKeys returns the keys filled at set-up.
func warmKeys(seed int64) []key {
	rng := rand.New(rand.NewSource(parallel.Seed(seed, 999)))
	var keys []key
	for i := 0; i < warmSeeds; i++ {
		s := rng.Int63()
		if i == 0 {
			s = seed // the golden seed's tables diff exactly when seed is 42
		}
		for _, id := range sweepIDs {
			keys = append(keys, key{id, s})
		}
	}
	return keys
}

// daemon is one in-process tecosimd over a fresh cache directory, behind a
// real loopback HTTP listener.
type daemon struct {
	srv    *server.Server
	hs     *httptest.Server
	client *http.Client
	dir    string
	// first holds the first payload served for each warm key.
	first map[key][]byte

	// Traced runs only: spans are recorded while tracing is set, and
	// inflight maps each in-flight cold key to its handler span and run id,
	// so the Run hook's span can name its parent.
	tracing  atomic.Bool
	mu       sync.Mutex
	inflight map[key][2]int
}

// envelope is the /run response body.
type envelope struct {
	Key    string          `json:"key"`
	Cached bool            `json:"cached"`
	Tables json.RawMessage `json:"tables"`
}

// startDaemon starts a daemon and fills the warm keys, checking each
// payload against its golden.
func startDaemon(r *run, sw *sweeper, warm []key) (*daemon, error) {
	dir, err := os.MkdirTemp(r.scratch, "cache-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, first: map[key][]byte{}, inflight: map[key][2]int{}}
	cfg := server.Config{CacheDir: dir, Workers: r.nproc}
	if t := r.tr; t != nil {
		cfg.Run = func(_ context.Context, id string, opt experiments.Options) ([]*experiments.Table, error) {
			if !d.tracing.Load() {
				return experiments.ByIDWith(id, opt)
			}
			d.mu.Lock()
			h, ok := d.inflight[key{id, opt.Seed}]
			d.mu.Unlock()
			if !ok {
				h = [2]int{-1, -1}
			}
			sp := t.begin("experiments.run", h[0], h[1])
			defer t.end(sp)
			return experiments.ByIDWith(id, opt)
		}
	}
	if d.srv, err = server.New(cfg); err != nil {
		return nil, err
	}
	h := d.srv.Handler()
	if r.tr != nil {
		h = d.traced(r.tr, h)
	}
	d.hs = httptest.NewServer(h)
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	for _, k := range warm {
		body, status, err := d.get(k, -1, -1, false)
		if err != nil || status != http.StatusOK {
			d.close()
			return nil, fmt.Errorf("warm fill %v: status %d: %v", k, status, err)
		}
		tabs, err := server.DecodeTables(body.Tables)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("warm fill %v: %v", k, err)
		}
		if err := checkTables(sw.golden[k.id], tabs, k.seed); err != nil {
			r.wrongAnswer("serve warm key %s seed %d: %v", k.id, k.seed, err)
		}
		d.first[k] = append([]byte(nil), body.Tables...)
	}
	return d, nil
}

// traced wraps the daemon's handler in a server.handler span whose parent
// is the client's request span (sent in a header).
func (d *daemon) traced(t *tracer, inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !d.tracing.Load() {
			inner.ServeHTTP(w, req)
			return
		}
		parent, _ := strconv.Atoi(req.Header.Get("X-Bench-Span"))
		runID, _ := strconv.Atoi(req.Header.Get("X-Bench-Run"))
		name := "server.handler_warm"
		if req.Header.Get("X-Bench-Cold") == "1" {
			name = "server.handler_cold"
		}
		sp := t.begin(name, parent, runID)
		if name == "server.handler_cold" {
			q := req.URL.Query()
			seed, _ := strconv.ParseInt(q.Get("seed"), 10, 64)
			d.mu.Lock()
			d.inflight[key{q.Get("id"), seed}] = [2]int{sp, runID}
			d.mu.Unlock()
		}
		inner.ServeHTTP(w, req)
		t.end(sp)
	})
}

// get sends one /run request. span and runID name the client's request
// span for the traced handler.
func (d *daemon) get(k key, span, runID int, cold bool) (envelope, int, error) {
	var env envelope
	req, err := http.NewRequest(http.MethodGet, d.hs.URL+"/run?id="+k.id+"&seed="+strconv.FormatInt(k.seed, 10), nil)
	if err != nil {
		return env, 0, err
	}
	req.Header.Set("X-Bench-Span", strconv.Itoa(span))
	req.Header.Set("X-Bench-Run", strconv.Itoa(runID))
	if cold {
		req.Header.Set("X-Bench-Cold", "1")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return env, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return env, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return env, resp.StatusCode, fmt.Errorf("%s", bytes.TrimSpace(b))
	}
	err = json.Unmarshal(b, &env)
	return env, resp.StatusCode, err
}

func (d *daemon) close() {
	d.hs.Close()
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.srv.Drain(ctx)
	os.RemoveAll(d.dir)
}

// latencies is one measured phase's client-side record.
type latencies struct {
	warm, cold []float64
	elapsed    float64
	samples    []sampled
}

// sampled is a cold response kept for the recomputation check.
type sampled struct {
	key
	tables []byte
}

// drive runs the closed loop: serveClients goroutines, each sending its
// script's next request when the previous reply has arrived, for budget
// seconds.
func (d *daemon) drive(r *run, scripts []*script, t *tracer, budget float64) latencies {
	var out latencies
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, sc := range scripts {
		wg.Add(1)
		go func(sc *script) {
			defer wg.Done()
			var warm, cold []float64
			var samples []sampled
			for time.Since(t0).Seconds() < budget {
				rq := sc.next()
				runID := sc.runID()
				sp := t.begin("serve.request", -1, runID)
				start := time.Now()
				env, status, err := d.get(rq.key, sp, runID, rq.cold)
				ms := float64(time.Since(start).Nanoseconds()) / 1e6
				t.end(sp)
				r.attempt(1)
				switch {
				case err != nil || status != http.StatusOK:
					r.fail("%v: status %d: %v", rq.key, status, err)
					continue
				case rq.cold:
					cold = append(cold, ms)
					if env.Cached {
						r.wrongAnswer("cold key %v served from cache", rq.key)
					}
					if rq.sample {
						samples = append(samples, sampled{rq.key, append([]byte(nil), env.Tables...)})
					}
				default:
					warm = append(warm, ms)
					if corruptPayload != nil {
						corruptPayload(env.Tables)
					}
					if !bytes.Equal(env.Tables, d.first[rq.key]) {
						r.wrongAnswer("warm key %v: payload differs from its first response", rq.key)
					}
				}
			}
			mu.Lock()
			out.warm = append(out.warm, warm...)
			out.cold = append(out.cold, cold...)
			out.samples = append(out.samples, samples...)
			mu.Unlock()
		}(sc)
	}
	wg.Wait()
	out.elapsed = time.Since(t0).Seconds()
	return out
}

// verifySamples recomputes each sampled cold key directly and requires the
// served payload to be byte-equal to the direct result's encoding.
func verifySamples(r *run, sw *sweeper, samples []sampled) {
	for _, s := range samples {
		tabs, err := experiments.ByIDWith(s.id, experiments.Options{Seed: s.seed, Workers: r.nproc})
		if err != nil {
			r.wrongAnswer("direct %v: %v", s.key, err)
			continue
		}
		want, err := json.Marshal(tabs)
		if err != nil {
			r.wrongAnswer("direct %v: %v", s.key, err)
			continue
		}
		if !bytes.Equal(want, s.tables) {
			r.wrongAnswer("cold key %v: served payload differs from a direct run", s.key)
		}
		if err := checkTables(sw.golden[s.id], tabs, s.seed); err != nil {
			r.wrongAnswer("cold key %v: %v", s.key, err)
		}
	}
}

// runServe drives an in-process tecosimd over loopback HTTP.
func runServe(r *run) error {
	sw, err := newSweeper(r)
	if err != nil {
		return err
	}
	warm := warmKeys(r.seed)
	scripts := make([]*script, serveClients)
	var preview []request
	for c := range scripts {
		scripts[c] = newScript(r.seed, c, warm)
		probe := newScript(r.seed, c, warm)
		for i := 0; i < digestRequests; i++ {
			preview = append(preview, probe.next())
		}
	}
	r.digest = digestOf("serve", warm, preview)

	// Set-up: start a daemon over a fresh cache and fill the warm keys;
	// the last round's daemon serves the run.
	var d *daemon
	err = r.setUp(func() (err error) {
		if d != nil {
			d.close()
		}
		d, err = startDaemon(r, sw, warm)
		return err
	})
	if err != nil {
		return err
	}
	defer d.close()

	if r.tr == nil {
		l := d.drive(r, scripts, nil, r.seconds)
		verifySamples(r, sw, l.samples)
		all := append(append([]float64(nil), l.warm...), l.cold...)
		r.set("ops_per_s", float64(len(all))/l.elapsed, "1/s")
		r.set("op_p50_ms", median(all), "ms")
		return nil
	}

	// Traced: the first half runs untraced; it is the overhead reference
	// and gives the client-side latency per class. The second half is
	// traced.
	t := r.tr
	plain := d.drive(r, scripts, nil, r.seconds/2)
	r.set("client.warm_p50_ms", quantile(plain.warm, 0.5), "ms")
	r.set("client.warm_p99_ms", quantile(plain.warm, 0.99), "ms")
	r.set("client.cold_p50_ms", quantile(plain.cold, 0.5), "ms")
	r.set("client.cold_p95_ms", quantile(plain.cold, 0.95), "ms")
	s0 := d.srv.Stats()
	d.tracing.Store(true)
	traced := d.drive(r, scripts, t, r.seconds/2)
	d.tracing.Store(false)
	s1 := d.srv.Stats()
	verifySamples(r, sw, append(plain.samples, traced.samples...))
	plainRate := float64(len(plain.warm)+len(plain.cold)) / plain.elapsed
	tracedRate := float64(len(traced.warm)+len(traced.cold)) / traced.elapsed
	r.set("trace.overhead_frac", plainRate/tracedRate-1, "ratio")

	r.set("server.handler_warm_us", median(t.durations("server.handler_warm"))*1e3, "us")
	r.set("server.handler_cold_ms", median(t.durations("server.handler_cold")), "ms")
	r.set("experiments.run_ms", median(t.durations("experiments.run")), "ms")
	r.set("server.pre_run_ms", median(preRun(t)), "ms")
	r.set("server.computes", float64(s1.Computes-s0.Computes), "count")
	r.set("server.coalesced", float64(s1.Coalesced-s0.Coalesced), "count")
	r.set("server.shed", float64(s1.Shed-s0.Shed), "count")
	r.set("server.timeouts", float64(s1.Timeouts-s0.Timeouts), "count")
	hits, misses := s1.Cache.Hits-s0.Cache.Hits, s1.Cache.Misses-s0.Cache.Misses
	r.set("diskcache.hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio")
	return probeDiskcache(r, d, warm, traced.samples)
}

// preRun returns, for every experiments.run span, the time from its parent
// handler span's start to its own start: request parsing, the cache miss,
// the flight and the admission-gate wait.
func preRun(t *tracer) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == "experiments.run" && s.Parent >= 0 {
			out = append(out, float64(s.Start-t.spans[s.Parent].Start)/1e6)
		}
	}
	return out
}

// probeDiskcache times diskcache.Put and Get directly, on a second cache
// holding the payloads the daemon served: the warm payloads and the
// sampled cold ones.
func probeDiskcache(r *run, d *daemon, warm []key, cold []sampled) error {
	dir, err := os.MkdirTemp(r.scratch, "probe-")
	if err != nil {
		return err
	}
	c, err := diskcache.Open(diskcache.Config{Dir: dir})
	if err != nil {
		return err
	}
	defer c.Close()
	var payloads [][]byte
	for _, k := range warm {
		payloads = append(payloads, d.first[k])
	}
	for _, s := range cold {
		payloads = append(payloads, s.tables)
	}
	var puts []float64
	for i, p := range payloads {
		puts = append(puts, timeMs(func() { err = c.Put(uint64(i+1), p) }))
		if err != nil {
			return err
		}
	}
	r.set("diskcache.put_ms", median(puts), "ms")
	i := 0
	r.set("diskcache.get_us", perCallNs(7, func() {
		p, ok, err := c.Get(uint64(i%len(payloads) + 1))
		if err != nil || !ok || !bytes.Equal(p, payloads[i%len(payloads)]) {
			panic(fmt.Sprintf("diskcache probe: entry %d lost (%v)", i, err))
		}
		i++
	})/1e3, "us")
	return nil
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"prefetchlab/internal/experiments"
	"prefetchlab/internal/isa"
	"prefetchlab/internal/resultcache"
	"prefetchlab/internal/serve"
	"prefetchlab/internal/staticprof"
	"prefetchlab/internal/stridecentric"
	"prefetchlab/internal/tenant"
	"prefetchlab/internal/workloads"
)

// A serve-warm round holds serveClassN requests of each of the five
// request classes whose latency the traced run reports apart (static, sim
// and analytic MRC misses, analytic mixes, result-cache hits) and
// serveScrapes /metrics scrapes, in seeded order. There is no recorded
// production traffic to take shares from, so the mix is synthetic and the
// rule is equal counts: every per-class median gets the same number of
// samples per round, and a scrape comes once every 20 requests on average.
const (
	serveClassN  = 38
	serveScrapes = 10
	serveRound   = 5*serveClassN + serveScrapes
)

// serveDiskCap bounds the measured server's disk result-cache tier to
// about 240 of the ~1 KB responses served here. Setup fills the tier to
// the cap with entries of an earlier run, so every miss of every round
// writes into a full tier and pays its garbage collection (which lists
// the whole tier) at the same size, not at one that grows with the run.
const serveDiskCap = 256 << 10

// replaySamples caps how many sampled responses are replayed against the
// reference server after the measured phases.
const replaySamples = 12

// request kinds.
const (
	kindStatic   = "static"
	kindSim      = "sim"
	kindAnalytic = "analytic"
	kindMix      = "mix"
	kindRepeat   = "hit"
	kindMetrics  = "metrics"
)

// serveReq is one generated request.
type serveReq struct {
	kind   string
	path   string
	bench  string
	input  int
	sample bool // replayed against the reference server
}

// served is one traced response.
type served struct {
	kind   string
	status int
	ms     float64
}

// serveWarm sends a seeded request mix to an in-process prefetchd behind
// httptest on loopback, with two keyed tenants and a memory+disk result
// cache, after warming every profile and analytic core it will read.
type serveWarm struct {
	cfg  config
	pool []string
	// analyticPool are the benches analytic-tier queries name: their cores
	// are warmed in every setup, and a cold analytic core of a larger
	// benchmark costs seconds.
	analyticPool []string

	srv     *serve.Server
	ts      *httptest.Server
	dir     string // the measured server's disk cache tier
	client  *http.Client
	setupNo int

	mu       sync.Mutex
	rounds   map[int][]serveReq
	bodies   map[string][]byte // path -> first body served
	samples  map[string][]byte // sampled path -> body
	log      []served          // traced responses
	handler  map[int]time.Duration
	compiled map[benchInput]*isa.Compiled
	queueSum float64
	queueCnt float64
}

var tenantKeys = []string{"perfbench-key-a", "perfbench-key-b"}

func newServeWarm(cfg config) *serveWarm {
	pool := []string{"gcc", "omnetpp", "xalan", "cigar"}
	if cfg.tiny {
		pool = []string{"cigar", "gcc"}
	}
	return &serveWarm{
		cfg: cfg, pool: pool, analyticPool: []string{"gcc", "cigar"},
		client:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: callers}},
		rounds:   map[int][]serveReq{},
		bodies:   map[string][]byte{},
		samples:  map[string][]byte{},
		handler:  map[int]time.Duration{},
		compiled: map[benchInput]*isa.Compiled{},
	}
}

// setup starts a server with a fresh memory+disk result cache and warms
// every profile (all pool benches at all inputs) and every analytic core
// (analytic pool, reference input) the requests read. Every setup does the
// same work; the last one's server is measured.
func (w *serveWarm) setup(ctx context.Context) error {
	w.setupNo++
	dir := filepath.Join(w.cfg.out, fmt.Sprintf("serve-cache-%d-%d", os.Getpid(), w.setupNo))
	cache, err := resultcache.New(resultcache.Config{MaxEntries: 4096, Dir: dir, MaxDiskBytes: serveDiskCap})
	if err == nil {
		err = fillDisk(cache)
	}
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	srv, ts, err := w.newServer(cache)
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	var paths []string
	for _, b := range w.pool {
		for id := 0; id < 4; id++ {
			paths = append(paths, warmPath(b, id))
		}
	}
	for _, b := range w.analyticPool {
		paths = append(paths, "/api/v1/mrc?tier=analytic&bench="+b)
	}
	err = forEach(len(paths), func(i int) error {
		_, status, _, err := w.get(ctx, ts.URL, paths[i], 0, -1)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("warm-up %s: status %d", paths[i], status)
		}
		return err
	})
	if err != nil {
		ts.Close()
		os.RemoveAll(dir)
		return err
	}
	w.close()
	w.ts, w.srv, w.dir = ts, srv, dir
	return nil
}

// fillDisk writes entries an earlier server run would have left in the
// disk tier until it holds serveDiskCap bytes. No request names their keys.
func fillDisk(cache *resultcache.Cache) error {
	body := bytes.Repeat([]byte("{\"earlier\":\"run\"}\n"), 50)
	for size, i := int64(0), 0; ; i++ {
		var buf bytes.Buffer
		e := resultcache.Entry{Key: fmt.Sprintf("earlier-run/%d", i), ContentType: "application/json", Body: body}
		if err := resultcache.EncodeEntry(&buf, e); err != nil {
			return err
		}
		if size += int64(buf.Len()); size > serveDiskCap {
			return nil
		}
		if err := os.WriteFile(cache.EntryPath(e.Key), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
}

// warmPath is the default-sizes sim MRC query setup sends for a bench
// and input, which leaves its response in the result cache.
func warmPath(bench string, input int) string {
	return fmt.Sprintf("/api/v1/mrc?bench=%s&input=%d", bench, input)
}

// newServer starts a prefetchd server with the two keyed tenants behind
// httptest; cache may be nil.
func (w *serveWarm) newServer(cache *resultcache.Cache) (*serve.Server, *httptest.Server, error) {
	reg, err := tenant.ParseConfig(strings.NewReader(
		"tenant-a " + tenantKeys[0] + " rate=1000000 burst=1000000\n" +
			"tenant-b " + tenantKeys[1] + " rate=1000000 burst=1000000\n"))
	if err != nil {
		return nil, nil, err
	}
	srv := serve.New(serve.Config{
		Base:        experiments.Options{Scale: scale, Seed: w.cfg.seed, SamplerPeriod: samplerPeriod, Workers: callers},
		Tenants:     reg,
		Cache:       cache,
		MaxInflight: callers,
	})
	return srv, httptest.NewServer(w.timed(srv.Handler())), nil
}

// timed wraps the server's handler so traced requests report their
// server-side time, keyed by the op sequence number they carry.
func (w *serveWarm) timed(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		seq, err := strconv.Atoi(r.Header.Get("X-Perfbench-Op"))
		if err != nil {
			h.ServeHTTP(rw, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(rw, r)
		d := time.Since(t0)
		w.mu.Lock()
		w.handler[seq] = d
		w.mu.Unlock()
	})
}

// get sends one GET as tenant (caller index), tagged with the op sequence
// number when seq >= 0, and returns the body, status and X-Cache header.
func (w *serveWarm) get(ctx context.Context, base, path string, caller, seq int) ([]byte, int, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return nil, 0, "", err
	}
	req.Header.Set("X-API-Key", tenantKeys[caller%len(tenantKeys)])
	if seq >= 0 {
		req.Header.Set("X-Perfbench-Op", strconv.Itoa(seq))
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, resp.Header.Get("X-Cache"), err
}

// requests returns round r's request list (generated once).
func (w *serveWarm) requests(round int) []serveReq {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.requestsLocked(round)
}

func (w *serveWarm) requestsLocked(round int) []serveReq {
	if reqs, ok := w.rounds[round]; ok {
		return reqs
	}
	r := roundRand(w.cfg.seed, round)
	kinds := make([]string, 0, serveRound)
	for _, k := range []string{kindStatic, kindSim, kindAnalytic, kindMix, kindRepeat} {
		for n := 0; n < serveClassN; n++ {
			kinds = append(kinds, k)
		}
	}
	for n := 0; n < serveScrapes; n++ {
		kinds = append(kinds, kindMetrics)
	}
	r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	reqs := make([]serveReq, serveRound)
	for i, kind := range kinds {
		seq := round*serveRound + i
		b := w.pool[r.Intn(len(w.pool))]
		id := r.Intn(4)
		sizes := fmt.Sprintf("32768,%d,8388608", 65536+64*int64(seq))
		q := serveReq{kind: kind, bench: b, input: id, sample: r.Intn(40) == 0}
		switch kind {
		case kindStatic:
			q.path = fmt.Sprintf("/api/v1/mrc?tier=static&bench=%s&input=%d&sizes=%s", b, id, sizes)
		case kindSim:
			q.path = fmt.Sprintf("/api/v1/mrc?bench=%s&input=%d&sizes=%s", b, id, sizes)
		case kindAnalytic:
			b = w.analyticPool[r.Intn(len(w.analyticPool))]
			q.bench, q.input = b, 0
			q.path = fmt.Sprintf("/api/v1/mrc?tier=analytic&bench=%s&sizes=%s", b, sizes)
		case kindMix:
			apps := make([]string, 4)
			for j := range apps {
				apps[j] = w.analyticPool[r.Intn(len(w.analyticPool))]
			}
			q.path = fmt.Sprintf("/api/v1/mix?tier=analytic&apps=%s&machine=%s&mixid=%d",
				strings.Join(apps, ","), []string{"amd", "intel"}[r.Intn(2)], seq%100000)
		case kindRepeat:
			// A repeat of a request at least 16 earlier, so it has been
			// answered and cached; the first requests of a run repeat a
			// warm-up query instead.
			q.path = warmPath(b, id)
			if seq >= 16 {
				lo := max(0, seq-512)
				t := lo + r.Intn(seq-16-lo+1)
				var prev serveReq
				if t >= round*serveRound {
					prev = reqs[t-round*serveRound]
				} else {
					prev = w.requestsLocked(t / serveRound)[t%serveRound]
				}
				if prev.kind != kindMetrics {
					q.path, q.bench, q.input = prev.path, prev.bench, prev.input
				}
			}
		case kindMetrics:
			q.path, q.sample = "/metrics", false
		}
		reqs[i] = q
	}
	w.rounds[round] = reqs
	return reqs
}

func (w *serveWarm) roundLen(round int) int { return serveRound }

func (w *serveWarm) do(ctx context.Context, id opID, tr *tracer) opResult {
	q := w.requests(id.round)[id.index]
	var res opResult
	traced := tr.active()
	seq := -1
	name := "serve.request"
	if q.kind == kindMetrics {
		name = "obs.scrape"
	}
	if traced {
		seq = id.seq
		if q.kind == kindStatic {
			w.probeStatic(tr, id.seq, q)
		}
	}
	t0 := time.Now()
	end := tr.begin(id.seq, name)
	body, status, xcache, err := w.get(ctx, w.ts.URL, q.path, id.caller, seq)
	d := time.Since(t0)
	if traced {
		w.mu.Lock()
		if hd, ok := w.handler[id.seq]; ok {
			tr.record(id.seq, "serve.handler", t0, hd)
			delete(w.handler, id.seq)
		}
		w.mu.Unlock()
	}
	end()
	if err != nil {
		res.failures = append(res.failures, fmt.Sprintf("%s: %v", q.path, err))
		return res
	}
	if status != http.StatusOK {
		res.failures = append(res.failures, fmt.Sprintf("%s: status %d: %s", q.path, status, bytes.TrimSpace(body)))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if traced {
		kind := q.kind
		if xcache == "hit" {
			kind = kindRepeat
		}
		w.log = append(w.log, served{kind: kind, status: status, ms: float64(d) / 1e6})
	}
	if q.kind == kindMetrics {
		if !bytes.Contains(body, []byte("prefetchd_http_queue_wait_seconds_count")) {
			res.failures = append(res.failures, "/metrics: no queue-wait histogram")
		}
		if traced {
			w.queueSum, w.queueCnt = promValue(body, "prefetchd_http_queue_wait_seconds_sum"), promValue(body, "prefetchd_http_queue_wait_seconds_count")
		}
		res.digest = "metrics\n"
		return res
	}
	if prev, ok := w.bodies[q.path]; ok {
		if !bytes.Equal(prev, body) {
			res.failures = append(res.failures, fmt.Sprintf("%s: X-Cache %s body differs from the earlier response", q.path, xcache))
		}
	} else {
		w.bodies[q.path] = body
	}
	if q.sample && len(w.samples) < replaySamples {
		w.samples[q.path] = body
	}
	res.digest = q.path + "\n" + string(body)
	return res
}

// probeStatic times the static analyzer alone on the request's program.
func (w *serveWarm) probeStatic(tr *tracer, seq int, q serveReq) {
	k := benchInput{q.bench, q.input}
	w.mu.Lock()
	c := w.compiled[k]
	w.mu.Unlock()
	if c == nil {
		spec, err := workloads.ByName(q.bench)
		if err != nil {
			return
		}
		prog, err := spec.Build(input(q.input))
		if err != nil {
			return
		}
		if c, err = isa.Compile(prog); err != nil {
			return
		}
		w.mu.Lock()
		w.compiled[k] = c
		w.mu.Unlock()
	}
	end := tr.begin(seq, "staticprof.analyze")
	staticprof.Analyze(c, stridecentric.DefaultParams())
	end()
}

// promValue reads an unlabeled sample from a Prometheus text exposition.
func promValue(body []byte, name string) float64 {
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

// verify replays the sampled requests on a fresh reference server with
// the result cache off: each must return the same bytes.
func (w *serveWarm) verify(ctx context.Context) []string {
	_, ref, err := w.newServer(nil)
	if err != nil {
		return []string{fmt.Sprintf("reference server: %v", err)}
	}
	defer ref.Close()
	var fails []string
	w.mu.Lock()
	samples := w.samples
	w.mu.Unlock()
	for _, path := range sortedKeys(samples) {
		body, status, _, err := w.get(ctx, ref.URL, path, 0, -1)
		switch {
		case err != nil:
			fails = append(fails, fmt.Sprintf("replay %s: %v", path, err))
		case status != http.StatusOK:
			fails = append(fails, fmt.Sprintf("replay %s: status %d", path, status))
		case !bytes.Equal(body, samples[path]):
			fails = append(fails, fmt.Sprintf("replay %s: body differs from the cache-off reference server", path))
		}
	}
	return fails
}

func (w *serveWarm) layers(m map[string]float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	byKind := map[string][]float64{}
	shed := 0
	for _, s := range w.log {
		byKind[s.kind] = append(byKind[s.kind], s.ms)
		if s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable {
			shed++
		}
	}
	m["serve.tier.static.p50_ms"] = percentile(byKind[kindStatic], 50)
	m["serve.tier.analytic.p50_ms"] = percentile(byKind[kindAnalytic], 50)
	m["serve.tier.sim.p50_ms"] = percentile(byKind[kindSim], 50)
	m["serve.mix.p50_ms"] = percentile(byKind[kindMix], 50)
	m["serve.hit.p50_ms"] = percentile(byKind[kindRepeat], 50)
	m["serve.shed_ratio"] = ratio(int64(shed), int64(len(w.log)))
	m["serve.queue_wait_mean_ms"] = 0
	if w.queueCnt > 0 {
		m["serve.queue_wait_mean_ms"] = w.queueSum / w.queueCnt * 1e3
	}
	cs := w.srv.ResultCache().Stats()
	m["resultcache.hit_ratio"] = ratio(cs.Hits, cs.Hits+cs.Misses)
}

// close stops the measured server and removes its disk cache tier.
func (w *serveWarm) close() {
	if w.ts != nil {
		w.ts.Close()
		w.ts = nil
	}
	w.client.CloseIdleConnections()
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

func (w *serveWarm) mirrored() bool { return false }

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// perLayerUnits lists every per-layer metric a traced run prints, with its
// unit; BENCHMARK.json's per_layer list matches it.
var perLayerUnits = func() map[string]string {
	u := map[string]string{
		"isa.compile_ms":                   "ms",
		"isa.vm_ns_per_event":              "ns",
		"isa.events":                       "count",
		"memsys.ns_per_access":             "ns",
		"memsys.access_share":              "ratio",
		"hwpref.observe_ns":                "ns",
		"hwpref.observe_calls":             "count",
		"cache.l1.misses":                  "count",
		"cache.l2.misses":                  "count",
		"cache.llc.misses":                 "count",
		"cache.useless_prefetch_evictions": "count",
		"swpref.useful_ratio":              "ratio",
		"hwpref.dropped_ratio":             "ratio",
		"dram.bytes":                       "B",
		"dram.queue_delay_per_transfer":    "cycles",
		"sampler.samples":                  "count",
		"core.inserted":                    "count",
		"pipeline.cache_hit_ratio":         "ratio",
		"analytic.alloc_mb_per_core":       "MB",
		"analytic.cpi_err_pct":             "%",
		"serve.transport_ms":               "ms",
		"serve.tier.static.p50_ms":         "ms",
		"serve.tier.analytic.p50_ms":       "ms",
		"serve.tier.sim.p50_ms":            "ms",
		"serve.mix.p50_ms":                 "ms",
		"serve.hit.p50_ms":                 "ms",
		"serve.queue_wait_mean_ms":         "ms",
		"serve.shed_ratio":                 "ratio",
		"resultcache.hit_ratio":            "ratio",
		"sim.minstr_per_s":                 "Minstr/s",
		"model.solo_speedup.hw":            "x",
		"model.solo_speedup.sw":            "x",
		"model.solo_speedup.swnt":          "x",
		"model.solo_speedup.stride":        "x",
		"model.mix_ws.hw":                  "x",
		"model.mix_ws.swnt":                "x",
		"trace.overhead_pct":               "%",
		"trace.spans":                      "count",
	}
	for name, sm := range spanMetrics {
		u[name] = "ms"
		if sm.scale == 1e3 {
			u[name] = "us"
		}
	}
	for _, l := range selfLayers {
		u["self_ms_per_op."+l] = "ms"
	}
	return u
}()

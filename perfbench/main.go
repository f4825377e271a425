// Command perfbench is the prefetchlab benchmark: four seeded workloads
// driven through the engine's public entry points (pipeline, mix, analytic,
// serve) by a closed loop of two callers. An untraced run (-trace 0) prints
// the end-to-end metrics; a traced run (-trace 1) records spans around every
// layer call and prints the per-layer metrics. Every op's output is checked,
// and a failed check counts as a failed op.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload solo-sim --seed 1 --seconds 26 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"prefetchlab/internal/obs"
)

// callers is the closed loop's client count: each caller sends its next
// op only after the previous one returned.
const callers = 2

// setups is how many times a run builds its workload state; setup_s is
// the median.
const setups = 5

// workload is one benchmark workload. setup builds fresh state (called
// setups times; the last state is measured). Ops are grouped in rounds of a
// fixed composition so a run's work does not depend on where the clock
// stopped; op (round, i) is a pure function of the seed.
type workload interface {
	setup(ctx context.Context) error
	roundLen(round int) int
	// mirrored reports whether both callers run every op of a round, in
	// the same order, instead of sharing one queue: twin runs of one op
	// overlap each other, so neither caller idles at the end of a round
	// and every op meets the same interference from the other caller.
	mirrored() bool
	do(ctx context.Context, o opID, tr *tracer) opResult
	// verify runs untimed end-of-run checks and returns failure reasons.
	verify(ctx context.Context) []string
	// layers adds the workload's simulated counts and model outputs over
	// round 0 to m (traced runs only).
	layers(m map[string]float64)
	close()
}

// opID names one op.
type opID struct {
	round, index int
	seq          int // global sequence number across the run
	caller       int // closed-loop caller running the op
	primary      bool
}

// counted reports whether the op adds to the round-0 counts: round-0 ops,
// once each (the first caller's run of a mirrored op).
func (o opID) counted() bool { return o.round == 0 && o.primary }

// opResult is what one op reports back to the loop.
type opResult struct {
	failures []string
	// digest is the op's contribution to the run digest: a rendering of
	// every simulated statistic and model output it produced.
	digest string
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	// tiny shrinks every workload's pools to their cheapest members (the
	// self-test).
	tiny bool
	// corrupt, when set, alters every simulated statistics snapshot before
	// it is checked (the self-test's injected fault).
	corrupt func(*obs.MachineSnapshot)
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 26, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for trace files and the disk result cache")
	flag.Parse()
	cfg.trace = traceFlag == 1
	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func workloadNames() []string {
	return []string{"solo-sim", "mix-corun", "analytic-cold", "serve-warm"}
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "solo-sim":
		return newSoloSim(cfg), nil
	case "mix-corun":
		return newMixCorun(cfg), nil
	case "analytic-cold":
		return newAnalyticCold(cfg), nil
	case "serve-warm":
		return newServeWarm(cfg), nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
}

// phase accumulates one measured phase (traced or untraced).
type phase struct {
	ops      int
	seconds  float64   // summed round durations
	rates    []float64 // per-round ops/s
	lat      []float64 // per-op latency, ms
	allocMB  float64
	failures int
}

// opsPerSec is the phase's ops over its rounds' summed duration. A run
// holds as few as two rounds of the heavier workloads, and their mean
// varies less between runs than either round.
func (p *phase) opsPerSec() float64 {
	if p.seconds == 0 {
		return 0
	}
	return float64(p.ops) / p.seconds
}

// runner drives rounds of a workload with the closed loop.
type runner struct {
	cfg    config
	w      workload
	tr     *tracer
	out    io.Writer
	seq    int
	digest map[int]string // round-0 op index -> digest part
}

// run executes one invocation and returns its result.
func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()
	var setupS []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		runtime.GC()
	}
	r := &runner{cfg: cfg, w: w, out: out, digest: make(map[int]string)}
	var traced, plain phase
	if cfg.trace {
		r.tr = newTracer()
	}
	r.measure(ctx, time.Duration(cfg.seconds*float64(time.Second)), &traced, &plain)
	verifyFailures := w.verify(ctx)
	for _, f := range verifyFailures {
		fmt.Fprintf(out, "FAILED check: %s\n", f)
	}
	// A failed end-of-run check counts as one more failed op.
	attempted := traced.ops + plain.ops
	failed := min(attempted, traced.failures+plain.failures+len(verifyFailures))
	dig := r.runDigest()
	fmt.Fprintf(out, "workload %s seed %d: %d ops, %d failed (failed_op_ratio %.4f), digest %016x\n",
		cfg.workload, cfg.seed, attempted, failed, float64(failed)/float64(max(attempted, 1)), dig)

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if !cfg.trace {
		res.Metrics["setup_s"] = metric{median(setupS), "s"}
		res.Metrics["ops_per_s"] = metric{plain.opsPerSec(), "ops/s"}
		res.Metrics["req_p50_ms"] = metric{percentile(plain.lat, 50), "ms"}
		res.Metrics["req_p99_ms"] = metric{percentile(plain.lat, 99), "ms"}
		res.Metrics["alloc_mb_per_op"] = metric{plain.allocMB / float64(max(plain.ops, 1)), "MB"}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		fmt.Fprintf(out, "latency samples %d, round ops/s %.4g\n", len(plain.lat), plain.rates)
	} else {
		// Layers a workload does not exercise report 0.
		m := map[string]float64{}
		for name := range perLayerUnits {
			m[name] = 0
		}
		w.layers(m)
		r.tr.metrics(m, traced.ops)
		overhead := 0.0
		if u := plain.opsPerSec(); u > 0 {
			overhead = (u - traced.opsPerSec()) / u * 100
		}
		m["trace.overhead_pct"] = overhead
		fmt.Fprintf(out, "tracing overhead: untraced %.4f ops/s, traced %.4f ops/s (%.1f%%)\n",
			plain.opsPerSec(), traced.opsPerSec(), overhead)
		r.tr.printSelf(out, traced.ops)
		path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := r.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans written to %s\n", path)
		for name, unit := range perLayerUnits {
			res.Metrics[name] = metric{m[name], unit}
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "metric %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}

// measure runs whole rounds until the budget is spent: a new round starts
// only if the mean round so far still fits. Untraced runs put every round in
// plain. Traced runs alternate traced and untraced rounds, starting traced
// so round 0 (the digest and the simulated counts) is traced, and run at
// least one of each; alternating keeps both phases at the same point of a
// workload whose cost drifts as it runs.
func (r *runner) measure(ctx context.Context, budget time.Duration, traced, plain *phase) {
	start := time.Now()
	for round := 0; ; round++ {
		p := plain
		if r.tr != nil {
			r.tr.on = round%2 == 0
			if r.tr.on {
				p = traced
			}
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		r.round(ctx, round, p)
		runtime.ReadMemStats(&ms1)
		p.allocMB += float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
		el := time.Since(start)
		if (r.tr == nil || round > 0) && el+el/time.Duration(round+1) > budget {
			break
		}
	}
	if r.tr != nil {
		r.tr.on = false
	}
}

// round runs one round's ops through the closed loop of callers.
func (r *runner) round(ctx context.Context, round int, p *phase) {
	n := r.w.roundLen(round)
	mirrored := r.w.mirrored()
	runs := n
	if mirrored {
		runs = n * callers
	}
	base := r.seq
	r.seq += runs
	start := time.Now()
	lat := make([]float64, runs)
	fails := make([][]string, runs)
	digests := make([]string, runs)
	next := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(caller int) {
			defer wg.Done()
			for k := 0; ; k++ {
				var i, slot int
				if mirrored {
					i, slot = k, k*callers+caller
				} else {
					mu.Lock()
					i = next
					next++
					mu.Unlock()
					slot = i
				}
				if i >= n {
					return
				}
				id := opID{round: round, index: i, seq: base + slot, caller: caller, primary: !mirrored || caller == 0}
				t0 := time.Now()
				end := r.tr.begin(id.seq, "bench.op")
				res := r.w.do(ctx, id, r.tr)
				end()
				lat[slot] = float64(time.Since(t0)) / float64(time.Millisecond)
				fails[slot], digests[slot] = res.failures, res.digest
			}
		}(c)
	}
	wg.Wait()
	d := time.Since(start).Seconds()
	p.seconds += d
	p.rates = append(p.rates, float64(runs)/d)
	for slot := range fails {
		i := slot
		if mirrored {
			i = slot / callers
			if twin := i * callers; slot != twin && digests[slot] != digests[twin] {
				fails[slot] = append(fails[slot], "concurrent twin runs of the op disagree")
			}
		}
		if round == 0 && (!mirrored || slot%callers == 0) {
			r.digest[i] = digests[slot]
		}
		if len(fails[slot]) > 0 {
			p.failures++
			fmt.Fprintf(r.out, "FAILED op %d/%d: %s\n", round, slot, strings.Join(fails[slot], "; "))
		}
	}
	p.ops += runs
	p.lat = append(p.lat, lat...)
}

// runDigest hashes round 0's op digests in op order: the same seed gives
// the same digest whatever the timing.
func (r *runner) runDigest() uint64 {
	h := fnv.New64a()
	for i := 0; i < len(r.digest); i++ {
		io.WriteString(h, r.digest[i])
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// forEach runs f(0..n-1) on the closed loop's caller count of goroutines
// and returns the first error.
func forEach(n int, f func(i int) error) error {
	var mu sync.Mutex
	var first error
	next := 0
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func median(v []float64) float64 { return percentile(v, 50) }

// percentile is the nearest-rank percentile (0 for no samples).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

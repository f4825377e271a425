package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"prefetchlab/internal/analytic"
	"prefetchlab/internal/machine"
	"prefetchlab/internal/pipeline"
	"prefetchlab/internal/sampler"
	"prefetchlab/internal/workloads"
)

// benchInput is one benchmark at one input; an analytic-cold op builds and
// predicts from its profile.
type benchInput struct {
	bench string
	input int
}

// analyticCold builds the analytic tier's per-application core from a warm
// profile and predicts solo CPI on both machines. Profiles and reference
// simulator CPIs are computed in setup.
type analyticCold struct {
	cfg   config
	pool  []string
	profs map[benchInput]*pipeline.BenchProfile
	ref   map[benchInput][]float64 // simulated solo CPI per machine

	mu     sync.Mutex
	errPct []float64 // round-0 |predicted - simulated| / simulated, %
}

func newAnalyticCold(cfg config) *analyticCold {
	pool := []string{"omnetpp", "xalan", "gcc", "cigar"}
	if cfg.tiny {
		pool = []string{"gcc", "cigar"}
	}
	return &analyticCold{cfg: cfg, pool: pool}
}

// pairs is every pool bench, alternately at the larger and the smaller
// round input.
func (w *analyticCold) pairs() []benchInput {
	out := make([]benchInput, len(w.pool))
	for i, b := range w.pool {
		out[i] = benchInput{b, roundInputs[i%len(roundInputs)]}
	}
	return out
}

// ops is round r's op list: the pairs in seeded order. Both callers run the
// whole list (the workload is mirrored).
func (w *analyticCold) ops(round int) []benchInput {
	r := roundRand(w.cfg.seed, round)
	out := w.pairs()
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func (w *analyticCold) roundLen(round int) int { return len(w.ops(round)) }

// setup profiles every pool bench at its round input and simulates its
// baseline on both machines for the reference CPIs.
func (w *analyticCold) setup(ctx context.Context) error {
	prof := pipeline.NewProfiler(sampler.Config{Period: samplerPeriod, Seed: w.cfg.seed})
	keys := w.pairs()
	profs := make([]*pipeline.BenchProfile, len(keys))
	refs := make([][]float64, len(keys))
	err := forEach(len(keys), func(i int) error {
		spec, err := workloads.ByName(keys[i].bench)
		if err != nil {
			return err
		}
		bp, err := prof.Get(ctx, spec, input(keys[i].input))
		if err != nil {
			return err
		}
		for _, mach := range machine.Both() {
			m, err := bp.Measure(ctx, mach)
			if err != nil {
				return err
			}
			refs[i] = append(refs[i], float64(m.Result.Cycles)/float64(m.Result.Instructions))
		}
		profs[i] = bp
		return nil
	})
	if err != nil {
		return err
	}
	w.profs = map[benchInput]*pipeline.BenchProfile{}
	w.ref = map[benchInput][]float64{}
	for i, k := range keys {
		w.profs[k], w.ref[k] = profs[i], refs[i]
	}
	return nil
}

func (w *analyticCold) do(ctx context.Context, id opID, tr *tracer) opResult {
	op := w.ops(id.round)[id.index]
	bp := w.profs[op]
	var res opResult
	if tr.active() {
		end := tr.begin(id.seq, "analytic.count_refs")
		analytic.CountRefs(bp.Compiled)
		end()
	}
	end := tr.begin(id.seq, "analytic.new_core")
	core := analytic.NewCore(op.bench, bp.Model, bp.Samples, bp.Compiled)
	end()
	res.digest = fmt.Sprintf("%s in%d counts %+v strided %v\n", op.bench, op.input, core.Counts, core.StridedFrac)
	for mi, mach := range machine.Both() {
		end := tr.begin(id.seq, "analytic.predict")
		pred := analytic.Predict(mach, []analytic.Core{core})
		end()
		if len(pred.Cores) != 1 {
			res.failures = append(res.failures, fmt.Sprintf("%s/in%d/%s: %d predicted cores", op.bench, op.input, mach.Name, len(pred.Cores)))
			continue
		}
		c := pred.Cores[0]
		if !positive(c.CPI) || c.Cycles <= 0 || !positive(c.BandwidthGBps+1) || !finite(c.MRLLC) || !finite(pred.BusUtilization) {
			res.failures = append(res.failures, fmt.Sprintf("%s/in%d/%s: prediction not finite and positive: %+v", op.bench, op.input, mach.Name, c))
		}
		res.digest += fmt.Sprintf("%s %+v util=%v\n", mach.Name, c, pred.BusUtilization)
		if id.counted() {
			ref := w.ref[op][mi]
			w.mu.Lock()
			w.errPct = append(w.errPct, math.Abs(c.CPI-ref)/ref*100)
			w.mu.Unlock()
		}
	}
	return res
}

func finite(x float64) bool   { return !math.IsNaN(x) && !math.IsInf(x, 0) }
func positive(x float64) bool { return finite(x) && x > 0 }

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func (w *analyticCold) verify(ctx context.Context) []string { return nil }

// layers also measures analytic.alloc_mb_per_core: the heap one
// analytic.NewCore allocates, as the mean over the pool of builds run one
// at a time after the measured rounds, when nothing else allocates.
func (w *analyticCold) layers(m map[string]float64) {
	var mb []float64
	for _, k := range w.pairs() {
		bp := w.profs[k]
		a0 := totalAlloc()
		analytic.NewCore(k.bench, bp.Model, bp.Samples, bp.Compiled)
		mb = append(mb, float64(totalAlloc()-a0)/1e6)
	}
	m["analytic.alloc_mb_per_core"] = mean(mb)
	w.mu.Lock()
	defer w.mu.Unlock()
	m["analytic.cpi_err_pct"] = mean(w.errPct)
}

func (w *analyticCold) close() {}

func (w *analyticCold) mirrored() bool { return true }

package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"prefetchlab/internal/core"
	"prefetchlab/internal/cpu"
	"prefetchlab/internal/isa"
	"prefetchlab/internal/machine"
	"prefetchlab/internal/obs"
	"prefetchlab/internal/pipeline"
	"prefetchlab/internal/sampler"
	"prefetchlab/internal/statstack"
	"prefetchlab/internal/stridecentric"
	"prefetchlab/internal/workloads"
)

// soloPolicies are the policies one solo-sim op runs after the baseline.
var soloPolicies = []pipeline.Policy{pipeline.HWPref, pipeline.SWPref, pipeline.SWPrefNT, pipeline.StrideCentric}

// soloOp is one (bench, input) study on both machines.
type soloOp struct {
	bench       string
	input       int
	samplerSeed int64
}

// soloSim regenerates one row of Figs 4-6 per op, cold: profile, then on
// each machine the baseline measurement, plans, rewritten variants and four
// solo policy runs.
type soloSim struct {
	cfg  config
	pool []string

	counts  simCounts
	mu      sync.Mutex
	speedup map[pipeline.Policy][]float64 // round-0 baseline/policy cycles
	planned int64                         // round-0 prefetches inserted
	samples int64                         // round-0 sampler samples
	hits    int64                         // round-0 pipeline cache hits
	misses  int64                         // round-0 pipeline cache misses
}

func newSoloSim(cfg config) *soloSim {
	pool := []string{"omnetpp", "libquantum", "gcc", "cigar"}
	if cfg.tiny {
		pool = []string{"gcc", "cigar"}
	}
	return &soloSim{cfg: cfg, pool: pool, speedup: map[pipeline.Policy][]float64{}}
}

// ops is round r's op list: every pool bench once, alternately at the
// larger and the smaller round input, with seeded sampler seeds, in seeded
// order. Both callers run the whole list (the workload is mirrored), which
// bounds a round to one pass over the pool.
func (w *soloSim) ops(round int) []soloOp {
	r := roundRand(w.cfg.seed, round)
	out := make([]soloOp, len(w.pool))
	for i, b := range w.pool {
		out[i] = soloOp{bench: b, input: roundInputs[i%len(roundInputs)], samplerSeed: r.Int63()}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func (w *soloSim) roundLen(round int) int { return len(w.ops(round)) }

// setup warms the process with one fixed study, so lazy runtime set-up
// and heap growth are not charged to the first measured op.
func (w *soloSim) setup(ctx context.Context) error {
	res := w.study(ctx, opID{round: -1}, soloOp{bench: "gcc", input: 0, samplerSeed: 1}, nil)
	if len(res.failures) > 0 {
		return fmt.Errorf("warm-up study: %v", res.failures)
	}
	return nil
}

func (w *soloSim) do(ctx context.Context, id opID, tr *tracer) opResult {
	return w.study(ctx, id, w.ops(id.round)[id.index], tr)
}

// study runs one op. A traced study also calls the layers the pipeline
// uses internally, each in its own span, and replays every timing run
// through the traced core loop, which must reproduce the engine exactly.
func (w *soloSim) study(ctx context.Context, id opID, op soloOp, tr *tracer) opResult {
	var res opResult
	label := fmt.Sprintf("%s/in%d", op.bench, op.input)
	spec, err := workloads.ByName(op.bench)
	if err != nil {
		res.failures = append(res.failures, label+": "+err.Error())
		return res
	}
	in := input(op.input)
	scfg := sampler.Config{Period: samplerPeriod, Seed: op.samplerSeed}
	prof := pipeline.NewProfiler(scfg)
	o := &obs.Obs{Stats: obs.NewStats()}
	prof.SetObs(o)

	end := tr.begin(id.seq, "pipeline.profile")
	bp, err := prof.Get(ctx, spec, in)
	end()
	if err != nil {
		res.failures = append(res.failures, fmt.Sprintf("%s: profile: %v", label, err))
		return res
	}
	if tr.active() {
		if f := replayProfile(tr, id.seq, spec, in, scfg, bp); f != "" {
			res.failures = append(res.failures, label+": "+f)
			return res
		}
	}
	for _, mach := range machine.Both() {
		if f := w.onMachine(ctx, id, bp, mach, o, tr, &res); f != "" {
			res.failures = append(res.failures, fmt.Sprintf("%s/%s: %s", label, mach.Name, f))
			return res
		}
	}
	if id.counted() {
		w.mu.Lock()
		w.samples += bp.Model.Samples()
		for _, cc := range o.CacheCounts() {
			w.hits += cc.Hits
			w.misses += cc.Misses
		}
		w.mu.Unlock()
	}
	return res
}

// onMachine runs the machine-specific half of a study: baseline, plans,
// variants and the four policy runs, then checks every run's statistics.
// It returns the reason the study could not go on, if any; failed checks
// land in res.
func (w *soloSim) onMachine(ctx context.Context, id opID, bp *pipeline.BenchProfile, mach machine.Machine, o *obs.Obs, tr *tracer, res *opResult) string {
	seq, round0, traced := id.seq, id.counted(), tr.active()
	in := bp.Input
	t0 := time.Now()
	end := tr.begin(seq, "pipeline.measure")
	base, err := bp.Measure(ctx, mach)
	end()
	if err != nil {
		return fmt.Sprintf("measure: %v", err)
	}
	tr.addSim(base.Result.Instructions, time.Since(t0))
	end = tr.begin(seq, "pipeline.plans")
	pl, err := bp.PlansFor(ctx, mach)
	end()
	if err != nil {
		return fmt.Sprintf("plans: %v", err)
	}
	if traced {
		if f := replayPlans(ctx, tr, seq, bp, mach, pl); f != "" {
			return f
		}
		if f := replaySolo(tr, seq, round0, mach, pipeline.Baseline, bp.Compiled, base.Result); f != "" {
			return f
		}
	}
	results := map[pipeline.Policy]cpu.Result{pipeline.Baseline: base.Result}
	for _, pol := range soloPolicies {
		end = tr.begin(seq, "pipeline.variant")
		c, err := bp.Variant(ctx, mach, pol, in)
		end()
		if err != nil {
			return fmt.Sprintf("variant %s: %v", pol, err)
		}
		t0 = time.Now()
		end = tr.begin(seq, "pipeline.run_solo")
		r, err := bp.RunSolo(ctx, mach, pol, in)
		end()
		if err != nil {
			return fmt.Sprintf("run %s: %v", pol, err)
		}
		tr.addSim(r.Instructions, time.Since(t0))
		results[pol] = r
		if traced {
			if plan := planFor(pl, pol); plan != nil {
				if f := replayApply(tr, seq, bp.Prog, plan); f != "" {
					return f
				}
			}
			if f := replaySolo(tr, seq, round0, mach, pol, c, r); f != "" {
				return f
			}
		}
	}

	res.digest += fmt.Sprintf("%s in%d %s inserted sw=%d swnt=%d stride=%d\n",
		bp.Spec.Name, in.ID, mach.Name, pl.SW.InsertedCount(), pl.SWNT.InsertedCount(), pl.Stride.InsertedCount())
	for _, pol := range append([]pipeline.Policy{pipeline.Baseline}, soloPolicies...) {
		snap, ok := o.Stats.Get(obs.SoloKey(mach.Name, bp.Spec.Name, in.ID, pol.String()))
		if !ok {
			return fmt.Sprintf("no stats snapshot for %s", pol)
		}
		if w.cfg.corrupt != nil && id.round >= 0 {
			w.cfg.corrupt(&snap)
		}
		res.failures = append(res.failures, checkSnapshot(fmt.Sprintf("%s/in%d/%s/%s", bp.Spec.Name, in.ID, mach.Name, pol), snap)...)
		res.digest += renderSnapshot(snap) + "\n"
		if round0 {
			w.counts.add(snap)
		}
	}
	if round0 {
		w.mu.Lock()
		for _, pol := range soloPolicies {
			w.speedup[pol] = append(w.speedup[pol], float64(base.Cycles)/float64(results[pol].Cycles))
		}
		w.planned += int64(pl.SW.InsertedCount() + pl.SWNT.InsertedCount() + pl.Stride.InsertedCount())
		w.mu.Unlock()
	}
	return ""
}

// planFor mirrors the pipeline's policy-to-plan mapping for the policies
// solo-sim runs.
func planFor(pl *pipeline.Plans, pol pipeline.Policy) *core.Plan {
	switch pol {
	case pipeline.SWPref:
		return pl.SW
	case pipeline.SWPrefNT:
		return pl.SWNT
	case pipeline.StrideCentric:
		return pl.Stride
	}
	return nil
}

// replayProfile times the profiling steps layer by layer and checks they
// reproduce the pipeline's model.
func replayProfile(tr *tracer, seq int, spec workloads.Spec, in workloads.Input, scfg sampler.Config, bp *pipeline.BenchProfile) string {
	end := tr.begin(seq, "workloads.build")
	prog, err := spec.Build(in)
	end()
	if err != nil {
		return fmt.Sprintf("build: %v", err)
	}
	end = tr.begin(seq, "isa.compile")
	c, err := isa.Compile(prog)
	end()
	if err != nil {
		return fmt.Sprintf("compile: %v", err)
	}
	end = tr.begin(seq, "sampler.trace")
	s := sampler.New(scfg)
	isa.Trace(c, s)
	samples := s.Finish()
	end()
	end = tr.begin(seq, "statstack.build")
	model := statstack.Build(samples)
	end()
	end = tr.begin(seq, "statstack.mrc")
	model.MRC(statstack.StandardSizes())
	end()
	if model.Samples() != bp.Model.Samples() {
		return fmt.Sprintf("replayed profile has %d samples, pipeline %d", model.Samples(), bp.Model.Samples())
	}
	return ""
}

// replayPlans times the three analyses and checks they reproduce the
// pipeline's plans.
func replayPlans(ctx context.Context, tr *tracer, seq int, bp *pipeline.BenchProfile, mach machine.Machine, pl *pipeline.Plans) string {
	params, err := bp.AnalysisParams(ctx, mach)
	if err != nil {
		return fmt.Sprintf("analysis params: %v", err)
	}
	for _, nt := range []bool{true, false} {
		params.EnableNT = nt
		end := tr.begin(seq, "core.analyze")
		plan := core.Analyze(bp.Compiled, bp.Model, bp.Samples, params)
		end()
		want := pl.SW
		if nt {
			want = pl.SWNT
		}
		if plan.InsertedCount() != want.InsertedCount() {
			return fmt.Sprintf("replayed MDDLI plan (NT %v) inserts %d, pipeline %d", nt, plan.InsertedCount(), want.InsertedCount())
		}
	}
	end := tr.begin(seq, "stridecentric.analyze")
	plan := stridecentric.Analyze(bp.Compiled, bp.Samples, stridecentric.DefaultParams())
	end()
	if plan.InsertedCount() != pl.Stride.InsertedCount() {
		return fmt.Sprintf("replayed stride-centric plan inserts %d, pipeline %d", plan.InsertedCount(), pl.Stride.InsertedCount())
	}
	return ""
}

// replayApply times the rewrite and checks the rewritten program compiles.
func replayApply(tr *tracer, seq int, prog *isa.Program, plan *core.Plan) string {
	end := tr.begin(seq, "core.apply")
	rewritten, err := plan.Apply(prog)
	end()
	if err != nil {
		return fmt.Sprintf("rewrite: %v", err)
	}
	end = tr.begin(seq, "isa.compile")
	_, err = isa.Compile(rewritten)
	end()
	if err != nil {
		return fmt.Sprintf("rewritten program does not compile: %v", err)
	}
	return ""
}

// replaySolo runs c through the traced core loop on a fresh hierarchy and
// checks it reproduces the engine's result.
func replaySolo(tr *tracer, seq int, round0 bool, mach machine.Machine, pol pipeline.Policy, c *isa.Compiled, want cpu.Result) string {
	st := &loopStats{}
	h, err := pipeline.Hierarchy(timedMachine(mach, st), 1, pol)
	if err != nil {
		return fmt.Sprintf("hierarchy: %v", err)
	}
	got := tr.tracedLoop(seq, round0, "cpu.loop", h, []*isa.Compiled{c}, false, st)
	if err := sameResults(got, []cpu.Result{want}); err != nil {
		return fmt.Sprintf("%s: %v", pol, err)
	}
	return ""
}

func (w *soloSim) verify(ctx context.Context) []string { return nil }

func (w *soloSim) layers(m map[string]float64) {
	w.counts.metrics(m)
	w.mu.Lock()
	defer w.mu.Unlock()
	m["core.inserted"] = float64(w.planned)
	m["sampler.samples"] = float64(w.samples)
	m["pipeline.cache_hit_ratio"] = ratio(w.hits, w.hits+w.misses)
	for _, pol := range soloPolicies {
		m["model.solo_speedup."+policyKey(pol)] = geomean(w.speedup[pol])
	}
}

func (w *soloSim) close() {}

// policyKey is a policy's metric-name suffix.
func policyKey(p pipeline.Policy) string {
	switch p {
	case pipeline.HWPref:
		return "hw"
	case pipeline.SWPref:
		return "sw"
	case pipeline.SWPrefNT:
		return "swnt"
	case pipeline.StrideCentric:
		return "stride"
	}
	return "baseline"
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

func (w *soloSim) mirrored() bool { return true }

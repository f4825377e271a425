package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"prefetchlab/internal/cpu"
	"prefetchlab/internal/isa"
	"prefetchlab/internal/machine"
	"prefetchlab/internal/mix"
	"prefetchlab/internal/obs"
	"prefetchlab/internal/pipeline"
	"prefetchlab/internal/sampler"
	"prefetchlab/internal/sched"
	"prefetchlab/internal/workloads"
)

// mixPolicies are the policies each co-run mix runs besides its baseline.
var mixPolicies = []pipeline.Policy{pipeline.HWPref, pipeline.SWPrefNT}

// mixOp is one seeded 4-app mix on one machine.
type mixOp struct {
	idx   int
	names []string
	mach  machine.Machine
}

// mixCorun runs co-run mixes on 4 simulated cores through mix.Runner, with
// profiles, plans and variants warmed in setup.
type mixCorun struct {
	cfg  config
	pool []string
	prof *pipeline.Profiler

	counts simCounts
	mu     sync.Mutex
	ws     map[pipeline.Policy][]float64 // round-0 weighted speedups
}

func newMixCorun(cfg config) *mixCorun {
	return &mixCorun{cfg: cfg, pool: []string{"omnetpp", "xalan", "gcc", "cigar"}, ws: map[pipeline.Policy][]float64{}}
}

// ops is round r's op list: the four distinct slot orders of the pool that
// mix.Generate draws with the round's seed, each on the AMD machine with
// every slot on the reference input. Slot order barely moves a mix's cost:
// all 24 orders simulate the same cycles within 1 %.
func (w *mixCorun) ops(round int) []mixOp {
	r := roundRand(w.cfg.seed, round)
	mixes, err := mix.Generate(len(w.pool), r.Int63(), w.pool)
	if err != nil {
		return nil
	}
	out := make([]mixOp, len(mixes))
	for j, names := range mixes {
		out[j] = mixOp{idx: round*len(mixes) + j, names: names, mach: machine.AMDPhenomII()}
	}
	return out
}

func (w *mixCorun) roundLen(round int) int { return len(w.ops(round)) }

// setup profiles every pool bench on the reference input and warms the
// plans and every policy's variant.
func (w *mixCorun) setup(ctx context.Context) error {
	w.prof = pipeline.NewProfiler(sampler.Config{Period: samplerPeriod, Seed: w.cfg.seed})
	return forEach(len(w.pool), func(i int) error {
		spec, err := workloads.ByName(w.pool[i])
		if err != nil {
			return err
		}
		bp, err := w.prof.Get(ctx, spec, input(0))
		if err != nil {
			return err
		}
		for _, pol := range append([]pipeline.Policy{pipeline.Baseline}, mixPolicies...) {
			if _, err := bp.Variant(ctx, machine.AMDPhenomII(), pol, input(0)); err != nil {
				return err
			}
		}
		return nil
	})
}

func (w *mixCorun) do(ctx context.Context, id opID, tr *tracer) opResult {
	op := w.ops(id.round)[id.index]
	var res opResult
	label := fmt.Sprintf("mix%03d %s on %s", op.idx, strings.Join(op.names, "+"), op.mach.Name)
	fail := func(format string, a ...any) opResult {
		res.failures = append(res.failures, label+": "+fmt.Sprintf(format, a...))
		return res
	}
	snaps := map[string]obs.MachineSnapshot{}
	var snapMu sync.Mutex
	stats := obs.NewStats()
	stats.Persist = func(key string, data []byte) {
		snap, err := obs.DecodeSnapshot(data)
		if err != nil {
			return
		}
		snapMu.Lock()
		snaps[key[strings.LastIndexByte(key, '/')+1:]] = snap
		snapMu.Unlock()
	}
	runner := &mix.Runner{
		Prof:         w.prof,
		Mach:         op.mach,
		ProfileInput: input(0),
		Pool:         sched.Serial,
		Obs:          &obs.Obs{Stats: stats},
	}
	t0 := time.Now()
	end := tr.begin(id.seq, "mix.run_one")
	cmp, err := runner.RunOne(ctx, op.idx, op.names, mixPolicies)
	end()
	if err != nil {
		return fail("%v", err)
	}
	runOne := time.Since(t0)
	if len(cmp.Skipped) > 0 {
		return fail("skipped policies: %v", cmp.Skipped)
	}
	round0 := id.counted()
	res.digest = label + "\n"
	var simulated int64 // instructions the replays simulated, restarts included
	for _, pol := range append([]pipeline.Policy{pipeline.Baseline}, mixPolicies...) {
		apps := cmp.Base.Apps
		if pol != pipeline.Baseline {
			apps = cmp.ByPolicy[pol].Apps
			ws := cmp.WS(pol)
			if math.IsNaN(ws) || math.IsInf(ws, 0) || ws <= 0 {
				res.failures = append(res.failures, fmt.Sprintf("%s: weighted speedup of %s is %v", label, pol, ws))
			}
			res.digest += fmt.Sprintf("%s ws=%v fs=%v qos=%v traffic=%v\n", pol, ws, cmp.FS(pol), cmp.QoS(pol), cmp.TrafficDelta(pol))
			if round0 {
				w.mu.Lock()
				w.ws[pol] = append(w.ws[pol], ws)
				w.mu.Unlock()
			}
		}
		snap, ok := snaps[pol.String()]
		if !ok {
			return fail("no stats snapshot for %s", pol)
		}
		if w.cfg.corrupt != nil {
			w.cfg.corrupt(&snap)
		}
		res.failures = append(res.failures, checkSnapshot(label+"/"+pol.String(), snap)...)
		res.digest += renderSnapshot(snap) + "\n"
		if round0 {
			w.counts.add(snap)
		}
		if tr.active() {
			n, f := w.replay(ctx, tr, id, op, pol, apps)
			if f != "" {
				return fail("%s", f)
			}
			simulated += n
		}
	}
	// The replays reproduce the engine's runs exactly, so they simulated
	// the instructions RunOne did, restarted runs included.
	tr.addSim(simulated, runOne)
	return res
}

// replay re-runs one policy of the mix through the traced core loop,
// which must reproduce mix.Runner's per-app results exactly. It returns
// the instructions the loop simulated and the reason it failed, if any.
func (w *mixCorun) replay(ctx context.Context, tr *tracer, id opID, op mixOp, pol pipeline.Policy, want []cpu.Result) (int64, string) {
	end := tr.begin(id.seq, "mix.policy_run")
	defer end()
	progs := make([]*isa.Compiled, len(op.names))
	for slot, name := range op.names {
		spec, err := workloads.ByName(name)
		if err != nil {
			return 0, err.Error()
		}
		bp, err := w.prof.Get(ctx, spec, input(0))
		if err != nil {
			return 0, err.Error()
		}
		if progs[slot], err = bp.Variant(ctx, op.mach, pol, input(0)); err != nil {
			return 0, err.Error()
		}
	}
	st := &loopStats{}
	h, err := pipeline.Hierarchy(timedMachine(op.mach, st), len(progs), pol)
	if err != nil {
		return 0, err.Error()
	}
	got := tr.tracedLoop(id.seq, id.counted(), "cpu.loop", h, progs, true, st)
	if err := sameResults(got, want); err != nil {
		return 0, fmt.Sprintf("%s: %v", pol, err)
	}
	return st.instructions, ""
}

func (w *mixCorun) verify(ctx context.Context) []string { return nil }

func (w *mixCorun) layers(m map[string]float64) {
	w.counts.metrics(m)
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, pol := range mixPolicies {
		m["model.mix_ws."+policyKey(pol)] = mean(w.ws[pol])
	}
}

func (w *mixCorun) close() {}

func (w *mixCorun) mirrored() bool { return false }

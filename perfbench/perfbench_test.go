package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"prefetchlab/internal/cpu"
	"prefetchlab/internal/isa"
	"prefetchlab/internal/machine"
	"prefetchlab/internal/obs"
	"prefetchlab/internal/pipeline"
	"prefetchlab/internal/sampler"
	"prefetchlab/internal/workloads"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tinyRun runs one workload once at its smallest size.
func tinyRun(t *testing.T, cfg config) (*result, string) {
	t.Helper()
	cfg.seed, cfg.seconds, cfg.tiny, cfg.out = 3, 0.001, true, t.TempDir()
	var out bytes.Buffer
	res, err := run(context.Background(), cfg, &out)
	if err != nil {
		t.Fatalf("%s trace=%v: %v\n%s", cfg.workload, cfg.trace, err, out.String())
	}
	return res, out.String()
}

// TestEveryMetricPrints runs each workload once untraced and once traced
// and checks that every metric BENCHMARK.json names prints with its unit,
// and that no op fails on the current code.
func TestEveryMetricPrints(t *testing.T) {
	spec := loadSpec(t)
	known := strings.Join(workloadNames(), ",")
	for _, w := range spec.Workloads {
		if !strings.Contains(","+known+",", ","+w.Name+",") {
			t.Fatalf("BENCHMARK.json workload %s is not one the benchmark runs (%s)", w.Name, known)
		}
	}
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res, out := tinyRun(t, config{workload: w, trace: trace})
			if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d ops failed:\n%s", w, trace, res.Failed, res.Attempted, out)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, m.Name, got, m.Unit)
				}
				if !strings.Contains(out, "metric "+m.Name+" ") {
					t.Errorf("%s trace=%v: %s not printed by name", w, trace, m.Name)
				}
				if !trace && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCorruptedOutputFails corrupts the simulator's DRAM byte count and
// checks every op fails.
func TestCorruptedOutputFails(t *testing.T) {
	for _, w := range []string{"solo-sim", "mix-corun"} {
		res, _ := tinyRun(t, config{workload: w, corrupt: func(s *obs.MachineSnapshot) { s.DRAM.Bytes += 64 }})
		if res.Correct || res.Failed != res.Attempted {
			t.Errorf("%s: corrupted run reports %d of %d ops failed, correct=%v", w, res.Failed, res.Attempted, res.Correct)
		}
	}
}

// TestTracedLoopMatchesEngine checks the traced core loop reproduces
// cpu.RunSingle and cpu.RunMix exactly.
func TestTracedLoopMatchesEngine(t *testing.T) {
	ctx := context.Background()
	prof := pipeline.NewProfiler(sampler.Config{Period: samplerPeriod, Seed: 5})
	policies := []pipeline.Policy{pipeline.Baseline, pipeline.HWPref, pipeline.SWPrefNT}
	for _, mach := range machine.Both() {
		for _, pol := range policies {
			var progs []*isa.Compiled
			for _, name := range []string{"cigar", "gcc", "omnetpp", "xalan"} {
				spec, err := workloads.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				bp, err := prof.Get(ctx, spec, input(0))
				if err != nil {
					t.Fatal(err)
				}
				c, err := bp.Variant(ctx, mach, pol, input(1))
				if err != nil {
					t.Fatal(err)
				}
				progs = append(progs, c)
				h, err := pipeline.Hierarchy(mach, 1, pol)
				if err != nil {
					t.Fatal(err)
				}
				want, err := cpu.RunSingle(c, h)
				if err != nil {
					t.Fatal(err)
				}
				st := &loopStats{}
				th, err := pipeline.Hierarchy(timedMachine(mach, st), 1, pol)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameResults(coreLoop(th, []*isa.Compiled{c}, false, st), []cpu.Result{want}); err != nil {
					t.Errorf("%s %s %s: %v", name, mach.Name, pol, err)
				}
			}
			h, err := pipeline.Hierarchy(mach, len(progs), pol)
			if err != nil {
				t.Fatal(err)
			}
			want, err := cpu.RunMix(h, progs)
			if err != nil {
				t.Fatal(err)
			}
			st := &loopStats{}
			th, err := pipeline.Hierarchy(timedMachine(mach, st), len(progs), pol)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameResults(coreLoop(th, progs, true, st), want); err != nil {
				t.Errorf("mix %s %s: %v", mach.Name, pol, err)
			}
			if pol == pipeline.HWPref && st.observeCalls == 0 {
				t.Errorf("mix %s: hardware prefetchers were not observed", mach.Name)
			}
		}
	}
}

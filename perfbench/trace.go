package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"prefetchlab/internal/cpu"
	"prefetchlab/internal/hwpref"
	"prefetchlab/internal/isa"
	"prefetchlab/internal/machine"
	"prefetchlab/internal/memsys"
	"prefetchlab/internal/ref"
)

// span is one recorded layer call. The layer is the name's prefix up to
// the first dot.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// split, set on core-loop spans, apportions the span's self time to
	// the layers the loop interleaves (isa, memsys, hwpref) by the sampled
	// time shares.
	split map[string]float64
}

// tracer keeps spans in memory until the run ends. A nil tracer or one
// switched off records nothing; every method is safe on either.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	open  map[int][]int // op -> stack of open span indices
	loops loopTotals
	// simInstr and simTime add up the engine's own simulation calls in
	// traced ops: the instructions they simulated and their host time.
	simInstr int64
	simTime  time.Duration
}

func newTracer() *tracer {
	return &tracer{on: true, t0: time.Now(), open: make(map[int][]int)}
}

func (t *tracer) active() bool { return t != nil && t.on }

// begin opens a span for op under the op's innermost open span and
// returns the function that closes it.
func (t *tracer) begin(op int, name string) func() {
	if !t.active() {
		return func() {}
	}
	idx := t.open1(op, name)
	return func() { t.finish(op, idx, nil) }
}

// open1 appends an open span and pushes it on the op's stack.
func (t *tracer) open1(op int, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	stack := t.open[op]
	parent := -1
	if len(stack) > 0 {
		parent = stack[len(stack)-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.t0))})
	t.open[op] = append(stack, idx)
	return idx
}

// record adds a closed span measured elsewhere (the server side of a
// request) under the op's innermost open span.
func (t *tracer) record(op int, name string, start time.Time, d time.Duration) {
	if !t.active() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if stack := t.open[op]; len(stack) > 0 {
		parent = stack[len(stack)-1]
	}
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: s, End: s + int64(d)})
}

// addSim records one engine simulation call of a traced op that
// simulated instr instructions in d.
func (t *tracer) addSim(instr int64, d time.Duration) {
	if !t.active() {
		return
	}
	t.mu.Lock()
	t.simInstr += instr
	t.simTime += d
	t.mu.Unlock()
}

func (t *tracer) finish(op, idx int, split map[string]float64) {
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[idx].End = end
	t.spans[idx].split = split
	stack := t.open[op]
	if n := len(stack); n > 0 && stack[n-1] == idx {
		t.open[op] = stack[:n-1]
	}
	if len(t.open[op]) == 0 {
		delete(t.open, op)
	}
	t.mu.Unlock()
}

// layerOf maps a span name to its layer.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time in ms: every span's duration
// minus its children's, split across layers for core-loop spans.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		self := float64(s.End-s.Start-child[i]) / 1e6
		if self < 0 {
			self = 0
		}
		if s.split == nil {
			out[layerOf(s.Name)] += self
			continue
		}
		for layer, share := range s.split {
			out[layer] += self * share
		}
	}
	return out
}

// meanMS returns the mean duration in ms of the spans named name.
func (t *tracer) meanMS(name string) float64 {
	var sum float64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += float64(s.End-s.Start) / 1e6
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// selfLayers are the layers whose self time is reported, in print order.
var selfLayers = []string{
	"bench", "workloads", "isa", "sampler", "statstack", "core", "stridecentric",
	"pipeline", "memsys", "hwpref", "mix", "analytic", "staticprof", "serve", "obs",
}

// spanMetrics maps per-layer duration metrics to their span names and the
// scale from ms.
var spanMetrics = map[string]struct {
	span  string
	scale float64
}{
	"isa.compile_ms":           {"isa.compile", 1},
	"workloads.build_ms":       {"workloads.build", 1},
	"sampler.trace_ms":         {"sampler.trace", 1},
	"statstack.build_ms":       {"statstack.build", 1},
	"statstack.mrc_us":         {"statstack.mrc", 1e3},
	"core.analyze_ms":          {"core.analyze", 1},
	"core.apply_ms":            {"core.apply", 1},
	"stridecentric.analyze_ms": {"stridecentric.analyze", 1},
	"pipeline.profile_ms":      {"pipeline.profile", 1},
	"pipeline.measure_ms":      {"pipeline.measure", 1},
	"pipeline.plans_ms":        {"pipeline.plans", 1},
	"pipeline.variant_ms":      {"pipeline.variant", 1},
	"pipeline.run_solo_ms":     {"pipeline.run_solo", 1},
	"mix.run_one_ms":           {"mix.run_one", 1},
	"mix.policy_run_ms":        {"mix.policy_run", 1},
	"analytic.new_core_ms":     {"analytic.new_core", 1},
	"analytic.count_refs_ms":   {"analytic.count_refs", 1},
	"analytic.predict_us":      {"analytic.predict", 1e3},
	"staticprof.analyze_us":    {"staticprof.analyze", 1e3},
	"serve.handler_ms":         {"serve.handler", 1},
	"obs.scrape_ms":            {"obs.scrape", 1},
}

// metrics adds the span-derived per-layer metrics to m; ops is the number
// of traced ops.
func (t *tracer) metrics(m map[string]float64, ops int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, sm := range spanMetrics {
		m[name] = t.meanMS(sm.span) * sm.scale
	}
	self := t.selfTimes()
	for _, l := range selfLayers {
		m["self_ms_per_op."+l] = self[l] / float64(max(ops, 1))
	}
	m["trace.spans"] = float64(len(t.spans))
	m["serve.transport_ms"] = 0
	if req, hd := t.meanMS("serve.request"), t.meanMS("serve.handler"); req > 0 && hd > 0 {
		m["serve.transport_ms"] = req - hd
	}
	t.loops.metrics(m)
	if t.simTime > 0 {
		m["sim.minstr_per_s"] = float64(t.simInstr) / 1e6 / t.simTime.Seconds()
	}
}

// printSelf prints each layer's self time per traced op.
func (t *tracer) printSelf(w io.Writer, ops int) {
	t.mu.Lock()
	self := t.selfTimes()
	t.mu.Unlock()
	fmt.Fprintf(w, "layer self time over %d traced ops:\n", ops)
	for _, l := range selfLayers {
		fmt.Fprintf(w, "  %-14s %12.3f ms/op\n", l, self[l]/float64(max(ops, 1)))
	}
}

// write saves every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sampleMask picks the core-loop events and prefetcher calls that are
// timed: one in 64, so timing costs little next to the work it measures.
const sampleMask = 63

// loopStats is one core loop's sampled timing and exact event counts.
type loopStats struct {
	events, accesses      int64
	vmNS, memNS           int64 // summed over sampled events
	sampledEvents         int64
	sampledAccesses       int64
	observeCalls          int64
	observeNS, observeSmp int64
	instructions          int64 // including restarted runs
}

// loopTotals aggregates loops: timings over every traced loop, counts over
// round 0 only so they repeat exactly.
type loopTotals struct {
	all           loopStats
	events, calls int64
}

func (lt *loopTotals) add(s *loopStats, round0 bool) {
	a := &lt.all
	a.events += s.events
	a.accesses += s.accesses
	a.vmNS += s.vmNS
	a.memNS += s.memNS
	a.sampledEvents += s.sampledEvents
	a.sampledAccesses += s.sampledAccesses
	a.observeCalls += s.observeCalls
	a.observeNS += s.observeNS
	a.observeSmp += s.observeSmp
	if round0 {
		lt.events += s.events
		lt.calls += s.observeCalls
	}
}

// shares estimates the loop's time split between the VM, the memory
// system (excluding prefetcher training) and the prefetchers.
func (s *loopStats) shares() (vm, mem, pref float64) {
	vmTot := perSample(s.vmNS, s.sampledEvents) * float64(s.events)
	memTot := perSample(s.memNS, s.sampledAccesses) * float64(s.accesses)
	prefTot := perSample(s.observeNS, s.observeSmp) * float64(s.observeCalls)
	if prefTot > memTot {
		prefTot = memTot
	}
	if tot := vmTot + memTot; tot > 0 {
		return vmTot / tot, (memTot - prefTot) / tot, prefTot / tot
	}
	return 0, 0, 0
}

func perSample(ns, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}

func (lt *loopTotals) metrics(m map[string]float64) {
	a := &lt.all
	m["isa.vm_ns_per_event"] = perSample(a.vmNS, a.sampledEvents)
	m["memsys.ns_per_access"] = perSample(a.memNS, a.sampledAccesses)
	m["hwpref.observe_ns"] = perSample(a.observeNS, a.observeSmp)
	_, mem, pref := a.shares()
	m["memsys.access_share"] = mem + pref
	m["isa.events"] = float64(lt.events)
	m["hwpref.observe_calls"] = float64(lt.calls)
}

// timedEngine counts every Observe call of a hardware prefetcher and
// times a fixed sample of them.
type timedEngine struct {
	hwpref.Engine
	st *loopStats
}

func (e timedEngine) Observe(now int64, pc ref.PC, line uint64, miss bool, buf []uint64) []uint64 {
	e.st.observeCalls++
	if e.st.observeCalls&sampleMask != 0 {
		return e.Engine.Observe(now, pc, line, miss, buf)
	}
	t0 := time.Now()
	out := e.Engine.Observe(now, pc, line, miss, buf)
	e.st.observeNS += int64(time.Since(t0))
	e.st.observeSmp++
	return out
}

// timedMachine returns mach with every hardware prefetcher wrapped so its
// training calls land in st.
func timedMachine(mach machine.Machine, st *loopStats) machine.Machine {
	wrap := func(mk func() (hwpref.Engine, error)) func() (hwpref.Engine, error) {
		if mk == nil {
			return nil
		}
		return func() (hwpref.Engine, error) {
			e, err := mk()
			if err != nil {
				return nil, err
			}
			return timedEngine{Engine: e, st: st}, nil
		}
	}
	mach.NewL1Pref = wrap(mach.NewL1Pref)
	mach.NewL2Pref = wrap(mach.NewL2Pref)
	mach.NewL2PrefB = wrap(mach.NewL2PrefB)
	return mach
}

// coreLoop drives programs on h exactly as cpu.RunSingle (restart false,
// one program) and cpu.RunMix (restart true) do, through the public VM and
// memory-system calls, timing a fixed sample of them into st.
func coreLoop(h *memsys.Hierarchy, progs []*isa.Compiled, restart bool, st *loopStats) []cpu.Result {
	type coreRun struct {
		vm       *isa.VM
		base     int64
		done     bool
		finished bool
		result   cpu.Result
	}
	cores := make([]coreRun, len(progs))
	h.SetPrivateLines(restart)
	for i, p := range progs {
		cores[i].vm = isa.NewVM(p)
		if w := h.Config().OOOWindow; w > 0 {
			cores[i].vm.SetWindow(w)
		}
		cores[i].result.Name = p.Prog.Name
		h.SetCorePCs(i, p.NumPCs())
	}
	remaining := len(progs)
	for remaining > 0 {
		ci := -1
		var min int64
		for i := range cores {
			if cores[i].finished {
				continue
			}
			if c := cores[i].base + cores[i].vm.Cycles(); ci < 0 || c < min {
				ci, min = i, c
			}
		}
		if ci < 0 {
			break
		}
		cr := &cores[ci]
		st.events++
		sampled := st.events&sampleMask == 0
		var ta time.Time
		if sampled {
			ta = time.Now()
		}
		ev := cr.vm.NextEvent()
		if !ev.Done {
			st.accesses++
			var tb, tc time.Time
			if sampled {
				tb = time.Now()
			}
			stall := h.Access(ci, cr.base+cr.vm.Cycles(), ev.Ref)
			if sampled {
				tc = time.Now()
			}
			if ev.Ref.Kind.IsPrefetch() {
				stall = 0
			}
			cr.vm.Complete(stall)
			if sampled {
				st.vmNS += int64(tb.Sub(ta) + time.Since(tc))
				st.memNS += int64(tc.Sub(tb))
				st.sampledEvents++
				st.sampledAccesses++
			}
			continue
		}
		if sampled {
			st.vmNS += int64(time.Since(ta))
			st.sampledEvents++
		}
		st.instructions += cr.vm.Instructions()
		if !cr.done {
			cr.done = true
			cr.result.Cycles = cr.base + cr.vm.Cycles()
			cr.result.Instructions = cr.vm.Instructions()
			cr.result.MemRefs = cr.vm.MemRefs()
			cr.result.Stats = h.CoreStats(ci)
			remaining--
		} else {
			cr.result.Restarts++
		}
		if restart && remaining > 0 {
			cr.base += cr.vm.Cycles()
			cr.vm.Reset()
		} else {
			cr.finished = true
		}
	}
	for i := range cores {
		if !cores[i].finished {
			st.instructions += cores[i].vm.Instructions()
		}
	}
	out := make([]cpu.Result, len(cores))
	for i := range cores {
		out[i] = cores[i].result
	}
	return out
}

// tracedLoop runs coreLoop on a fresh hierarchy for policy on mach inside
// a core-loop span, records the loop into the tracer, and returns the
// results and the hierarchy.
func (t *tracer) tracedLoop(op int, round0 bool, name string, h *memsys.Hierarchy, progs []*isa.Compiled, restart bool, st *loopStats) []cpu.Result {
	idx := t.open1(op, name)
	res := coreLoop(h, progs, restart, st)
	vm, mem, pref := st.shares()
	t.finish(op, idx, map[string]float64{"isa": vm, "memsys": mem, "hwpref": pref})
	t.mu.Lock()
	t.loops.add(st, round0)
	t.mu.Unlock()
	return res
}

// sameResults compares the traced loop's results with the engine's.
func sameResults(got, want []cpu.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("traced loop ran %d cores, engine %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("traced loop core %d differs from the engine: %+v vs %+v", i, got[i], want[i])
		}
	}
	return nil
}

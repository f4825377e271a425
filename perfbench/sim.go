package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	"prefetchlab/internal/obs"
	"prefetchlab/internal/ref"
	"prefetchlab/internal/workloads"
)

// scale is the iteration scale every workload runs at. At this scale each
// benchmark runs its minimum pass count, so data sizes, not iterations, set
// the work.
const scale = 0.02

// samplerPeriod is the profiling sample period.
const samplerPeriod = 4096

// input returns workload input id at the benchmark scale. Ids 0-3 scale
// data sizes by 1.0, 0.75, 1.25 and 1.5.
func input(id int) workloads.Input { return workloads.Input{ID: id, Scale: scale} }

// roundRand is the seeded generator of one round's op list.
func roundRand(seed int64, round int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(round)))
}

// roundInputs are the input ids the solo and analytic rounds run: data
// sizes x1.5 and x0.75, on both sides of the modelled cache sizes.
var roundInputs = []int{3, 1}

// checkSnapshot verifies the simulator's accounting identities on one
// machine snapshot: every L1 demand access is a load or a store, the L1's
// own miss count matches the core's, and every DRAM byte is one core's
// traffic in whole lines.
func checkSnapshot(what string, s obs.MachineSnapshot) []string {
	var fails []string
	var traffic int64
	for _, c := range s.Cores {
		if acc := c.L1.Hits + c.L1.Misses; acc != c.Demand.Loads+c.Demand.Stores {
			fails = append(fails, fmt.Sprintf("%s core %d: L1 demand accesses %d != loads+stores %d",
				what, c.Core, acc, c.Demand.Loads+c.Demand.Stores))
		}
		if c.L1.Misses != c.Demand.L1Misses {
			fails = append(fails, fmt.Sprintf("%s core %d: L1 cache misses %d != core L1 misses %d",
				what, c.Core, c.L1.Misses, c.Demand.L1Misses))
		}
		traffic += c.Traffic.Total
	}
	if s.DRAM.Bytes != traffic || s.DRAM.Bytes != ref.LineSize*s.DRAM.Transfers {
		fails = append(fails, fmt.Sprintf("%s: DRAM bytes %d, per-core traffic %d, %d transfers x %d",
			what, s.DRAM.Bytes, traffic, s.DRAM.Transfers, ref.LineSize))
	}
	return fails
}

// renderSnapshot is a snapshot's digest contribution.
func renderSnapshot(s obs.MachineSnapshot) string {
	b, err := json.Marshal(s)
	if err != nil {
		return "unencodable snapshot: " + err.Error()
	}
	return string(b)
}

// simCounts sums the simulated statistics of round 0's snapshots. Counts
// are exact and repeat for a seed, so they compare two versions of the
// simulator directly.
type simCounts struct {
	mu                                   sync.Mutex
	l1, l2, llc, useless                 int64
	swIssued, swUseful, hwIssued, hwDrop int64
	dramBytes, queueDelay, transfers     int64
}

func (c *simCounts) add(s obs.MachineSnapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, core := range s.Cores {
		c.l1 += core.Demand.L1Misses
		c.l2 += core.Demand.L2Misses
		c.llc += core.Demand.LLCMisses
		c.useless += core.L1.UselessSW + core.L1.UselessHW + core.L2.UselessSW + core.L2.UselessHW
		c.swIssued += core.Prefetch.SWIssued
		c.swUseful += core.Prefetch.SWUseful
		c.hwIssued += core.Prefetch.HWIssued
		c.hwDrop += core.Prefetch.HWDropped
	}
	c.useless += s.LLC.UselessSW + s.LLC.UselessHW
	c.dramBytes += s.DRAM.Bytes
	c.queueDelay += s.DRAM.QueueDelayCycles
	c.transfers += s.DRAM.Transfers
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (c *simCounts) metrics(m map[string]float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m["cache.l1.misses"] = float64(c.l1)
	m["cache.l2.misses"] = float64(c.l2)
	m["cache.llc.misses"] = float64(c.llc)
	m["cache.useless_prefetch_evictions"] = float64(c.useless)
	m["swpref.useful_ratio"] = ratio(c.swUseful, c.swIssued)
	m["hwpref.dropped_ratio"] = ratio(c.hwDrop, c.hwIssued+c.hwDrop)
	m["dram.bytes"] = float64(c.dramBytes)
	m["dram.queue_delay_per_transfer"] = ratio(c.queueDelay, c.transfers)
}

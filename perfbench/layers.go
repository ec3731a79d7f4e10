package main

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/sim"
)

// perLayerUnits lists the per-layer metrics of a traced run, named by
// module. A layer a workload does not exercise reads 0.
var perLayerUnits = func() map[string]string {
	m := map[string]string{
		"sim.run_s":                   "s",
		"sim.warm_s":                  "s",
		"sim.fc.mcycles_per_s":        "Mcycles/s",
		"sim.lc.mcycles_per_s":        "Mcycles/s",
		"sim.ipc":                     "ratio",
		"sim.dstall_frac":             "ratio",
		"sim.istall_frac":             "ratio",
		"sim.idle_frac":               "ratio",
		"sim.mcycles_per_op":          "Mcycles",
		"cache.l1i_mpki":              "1/kinstr",
		"cache.l1d_mpki":              "1/kinstr",
		"cache.l2_mpki":               "1/kinstr",
		"core.useful_sim_fraction":    "ratio",
		"trace.records_per_op":        "count",
		"trace.records_per_s":         "1/s",
		"workload.build_tpch_s":       "s",
		"workload.build_tpcc_s":       "s",
		"workload.tpcc_txn_s":         "s",
		"oltp.sched_s":                "s",
		"oltp.parks_per_txn":          "ratio",
		"oltp.wounds_per_txn":         "ratio",
		"oltp.fenced_per_txn":         "ratio",
		"oltp.digest_mismatch_rate":   "ratio",
		"share.attaches_per_op":       "count",
		"share.rotations_per_op":      "count",
		"share.result_cache_hit_rate": "ratio",
		"engine.native_gb_per_s":      "GB/s",
		"engine.scaling_2w_x":         "x",
		"server.overhead_s":           "s",
		"server.encode_s":             "s",
		"bench.trace_overhead":        "ratio",
	}
	for _, mode := range []string{"vec-dss", "shared-dss", "parallel-dss", "staged-oltp"} {
		m["core.run_s."+mode] = "s"
	}
	for _, camp := range []string{"fc", "lc"} {
		for _, wk := range []string{"oltp", "dss"} {
			for _, sat := range []string{"sat", "unsat"} {
				m[fmt.Sprintf("core.cell_s.%s.%s.%s", camp, wk, sat)] = "s"
			}
		}
	}
	for _, q := range []int{1, 6, 13} {
		m[fmt.Sprintf("workload.tracegen_s.q%d", q)] = "s"
		for _, w := range []int{1, 2} {
			m[fmt.Sprintf("engine.native_s.q%d.w%d", q, w)] = "s"
		}
	}
	return m
}()

// counters sums the counts the traced run reads at layer boundaries.
type counters struct {
	mu sync.Mutex
	m  map[string]float64
}

func newCounters() *counters { return &counters{m: make(map[string]float64)} }

func (c *counters) add(k string, v float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m[k] += v
	c.mu.Unlock()
}

func (c *counters) get(k string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[k]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probe is what a traced operation records into: spans and counts. A
// nil probe is an untraced operation.
type probe struct {
	tr  *Tracer
	acc *counters
}

func (p *probe) span(parent *Open, op uint64, name string) *Open {
	if p == nil {
		return nil
	}
	return p.tr.Begin(parent, op, name)
}

// addSim counts one simulated subject execution's statistics.
func (p *probe) addSim(r sim.Result) {
	if p == nil {
		return
	}
	b := r.Breakdown
	p.acc.add("sim.cycles", float64(r.Cycles))
	p.acc.add("sim.instructions", float64(r.Instructions))
	p.acc.add("sim.busy", float64(b.Busy()))
	p.acc.add("sim.idle", float64(b.Idle()))
	p.acc.add("sim.dstall", float64(b.DStalls()))
	p.acc.add("sim.istall", float64(b.IStalls()))
	p.acc.add("cache.l1i_misses", float64(r.Cache.L1IMisses))
	p.acc.add("cache.l1d_misses", float64(r.Cache.L1DMisses))
	p.acc.add("cache.l2_misses", float64(r.Cache.L2Misses))
}

// simLayers derives the sim and cache ratios from the counted
// executions.
func simLayers(acc *counters, m map[string]float64) {
	instr := acc.get("sim.instructions")
	busy := acc.get("sim.busy")
	m["sim.ipc"] = ratio(instr, acc.get("sim.cycles"))
	m["sim.dstall_frac"] = ratio(acc.get("sim.dstall"), busy)
	m["sim.istall_frac"] = ratio(acc.get("sim.istall"), busy)
	m["sim.idle_frac"] = ratio(acc.get("sim.idle"), busy+acc.get("sim.idle"))
	m["cache.l1i_mpki"] = ratio(1000*acc.get("cache.l1i_misses"), instr)
	m["cache.l1d_mpki"] = ratio(1000*acc.get("cache.l1d_misses"), instr)
	m["cache.l2_mpki"] = ratio(1000*acc.get("cache.l2_misses"), instr)
}

// driver is one workload's operation loop over a built environment.
type driver struct {
	Clients int
	// Block is the length of one balanced block of the mix. Loops send
	// whole blocks, and throughput is read per block.
	Block int
	// Rate is the workload's operations per second on the host the
	// benchmark was defined on. A run sends about --seconds x Rate
	// operations, so its length follows --seconds while the operations
	// it sends depend on the seed alone.
	Rate float64
	// MinOps is the fewest operations an untraced run sends: enough
	// successes that latency_p90_s leaves tailBeyond samples above it.
	MinOps int
	// Op runs operation i of the run's sequence (traced when p is
	// non-nil) and returns its primary latency and outcome.
	Op func(i int, p *probe) sample
	// Layers fills the workload's per-layer metrics after a traced run.
	Layers func(acc *counters, rows []LedgerRow, m map[string]float64)
}

// ops is how many operations a loop of the given length sends: a whole
// number of blocks, and at least atLeast.
func (d driver) ops(seconds float64, atLeast int) int {
	n := max(int(math.Ceil(seconds*d.Rate)), atLeast, 1)
	return (n + d.Block - 1) / d.Block * d.Block
}

// opID numbers operation i uniquely within a run.
func opID(i int) uint64 { return uint64(i + 1) }

// tracedShare is the traced loop's operation count as a share of an
// untraced run's: a traced operation also runs the decomposition, which
// costs about three times the operation itself.
const tracedShare = 0.25

// measure runs d untraced for the end-to-end metrics, or, with tracing
// on, as an untraced reference loop followed by the traced loop that
// yields the per-layer ledger.
func measure(cfg config, d driver, setups []float64, tr *Tracer) *report {
	rep := &report{Extra: map[string]float64{}, Setup: setups}
	untraced := func(i int) sample { return d.Op(i, nil) }
	if !cfg.Trace {
		run := closedLoop(loopSpec{
			Clients: d.Clients, Ops: d.ops(float64(cfg.Seconds), d.MinOps), Deadline: cfg.Deadline(),
		}, untraced)
		sum := summarize(run, d.Block)
		rep.fill(sum)
		rep.EndToEnd = sum.endToEnd(setups)
		rep.ByOp = sum.ByOp
		rep.Extra["samples"] = float64(len(sum.Lats))
		rep.Extra["samples_beyond_p90"] = float64(samplesBeyond(len(sum.Lats), tailP))
		rep.Extra["latency_q1_s"], rep.Extra["latency_q3_s"] = quartiles(sum.Lats)
		rep.Extra["elapsed_s"] = sum.Elapsed
		rep.WindowRates = sum.Rates
		rep.Extra["sim_mcycles_per_op"] = mean(sum.Mcycles)
		return rep
	}
	n := d.ops(tracedShare*float64(cfg.Seconds), d.Block)
	ref := closedLoop(loopSpec{Clients: d.Clients, Ops: n, Deadline: cfg.Deadline()}, untraced)
	p := &probe{tr: tr, acc: newCounters()}
	traced := closedLoop(loopSpec{Clients: d.Clients, Ops: n, Deadline: cfg.Deadline()},
		func(i int) sample { return d.Op(i, p) })
	refSum, tSum := summarize(ref, d.Block), summarize(traced, d.Block)
	rep.fill(refSum, tSum)
	rep.ByOp = tSum.ByOp
	rep.Ledger = ledger(tr.Spans())
	rep.Spans = tr
	m := make(map[string]float64, len(perLayerUnits))
	for name := range perLayerUnits {
		m[name] = 0
	}
	m["workload.build_tpch_s"] = selfMean(rep.Ledger, "workload.build_tpch")
	m["workload.build_tpcc_s"] = selfMean(rep.Ledger, "workload.build_tpcc")
	m["bench.trace_overhead"] = ratio(median(tSum.Lats), median(refSum.Lats))
	m["sim.mcycles_per_op"] = mean(tSum.Mcycles)
	d.Layers(p.acc, rep.Ledger, m)
	rep.PerLayer = m
	rep.Extra["reference_samples"] = float64(len(refSum.Lats))
	rep.Extra["traced_samples"] = float64(len(tSum.Lats))
	return rep
}

// fill counts every operation of the given loops against the run.
func (rep *report) fill(loops ...loopSummary) {
	wrong := 0
	for _, s := range loops {
		rep.Attempted += s.Attempted
		rep.Failed += s.Failed
		rep.Failures = append(rep.Failures, s.Failures...)
		wrong += s.Wrong
	}
	rep.Correct = wrong == 0
}

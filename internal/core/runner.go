package core

import (
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Scale sizes the workload databases. Experiments share one loaded
// database per kind (the paper measures from warmed checkpoints of one
// database instance).
type Scale struct {
	TPCC workload.TPCCConfig
	TPCH workload.TPCHConfig
}

// FullScale is the default experiment scale: OLTP ~25 MB hot structure
// (primary working set captured between 8 and 16 MB, per the paper) and a
// DSS lineitem well beyond the largest 26 MB cache.
func FullScale() Scale {
	return Scale{
		TPCC: workload.TPCCConfig{Warehouses: 4, Items: 20000, CustPerDis: 500, ArenaBytes: 256 << 20},
		TPCH: workload.TPCHConfig{Lineitems: 400000, ArenaBytes: 256 << 20},
	}
}

// TestScale is a small fast scale for unit tests.
func TestScale() Scale {
	return Scale{
		TPCC: workload.TPCCConfig{Warehouses: 2, Items: 2000, CustPerDis: 100, ArenaBytes: 96 << 20},
		TPCH: workload.TPCHConfig{Lineitems: 40000, ArenaBytes: 96 << 20},
	}
}

// Runner executes experiment cells, lazily building and then reusing the
// workload databases.
type Runner struct {
	ScaleCfg Scale

	// Sched, when its histogram fields are set (obs.Registry-backed in
	// the server), receives scheduler-internals observations — quantum
	// lengths, park durations — from every staged-OLTP run. The zero
	// value discards them.
	Sched obs.SchedMetrics

	// Join, when set, receives hash-join build observations — chain-length
	// distribution, partition fan-out — from the traced DSS runs. The zero
	// value discards them. Native (wall-clock) sweeps never observe: the
	// chain walk would tax the timed loop.
	Join obs.JoinMetrics

	mu   sync.Mutex
	tpcc *workload.TPCC
	tpch *workload.TPCH
}

// NewRunner creates a runner at the given scale.
func NewRunner(s Scale) *Runner { return &Runner{ScaleCfg: s} }

// clientSeed is deterministic per (workload, client) so paired cells —
// e.g. the FC and LC sides of Figure 4 — replay the same request
// sequences, the paper's paired-measurement methodology.
func clientSeed(wk WorkloadKind, client int) int64 {
	return 7919 + int64(wk)*1009 + int64(client)*31
}

// TPCC returns the shared OLTP database, building it on first use.
func (r *Runner) TPCC() (*workload.TPCC, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tpcc == nil {
		w, err := workload.BuildTPCC(r.ScaleCfg.TPCC)
		if err != nil {
			return nil, err
		}
		r.tpcc = w
	}
	return r.tpcc, nil
}

// TPCH returns the shared DSS database, building it on first use.
func (r *Runner) TPCH() (*workload.TPCH, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tpch == nil {
		h, err := workload.BuildTPCH(r.ScaleCfg.TPCH)
		if err != nil {
			return nil, err
		}
		r.tpch = h
	}
	return r.tpch, nil
}

// releaseWork returns the contexts' workspace backings for reuse by the
// next run's NewCtx. Callers own the contexts and call it once every
// goroutine that used them has returned.
func releaseWork(ctxs []*engine.Ctx) {
	for _, c := range ctxs {
		c.Work.Release()
	}
}

// oltpWork tracks per-client transaction counts for work accounting.
type clientDone struct {
	work int
	err  error
}

// RunCell executes one characterization cell: it spawns one traced
// client per Cell.Clients, binds their streams to a fresh simulated
// chip, functionally warms the caches, measures, and tears the clients
// down. The executor-comparison modes live behind Run (the unified
// request API); RunCell is the figure/table machinery underneath the
// paper's characterization experiments.
func (r *Runner) RunCell(c Cell) (CellResult, error) {
	cfg := c.SimConfig()
	chip := sim.NewChip(cfg)

	var wg sync.WaitGroup
	dones := make([]clientDone, c.Clients)
	streams := make([]*trace.Stream, 0, c.Clients)

	switch c.Workload {
	case OLTP:
		w, err := r.TPCC()
		if err != nil {
			return CellResult{}, err
		}
		for i := 0; i < c.Clients; i++ {
			rec, s := trace.Pipe()
			streams = append(streams, s)
			chip.AddThread(s)
			limit := 0
			if !c.Saturated {
				limit = c.UnsatTxns
			}
			wg.Add(1)
			go func(i int, rec *trace.Recorder) {
				defer wg.Done()
				counts, err := w.Client(rec, i, clientSeed(OLTP, i), limit)
				dones[i] = clientDone{work: counts.Total(), err: err}
			}(i, rec)
		}
	case DSS:
		h, err := r.TPCH()
		if err != nil {
			return CellResult{}, err
		}
		for i := 0; i < c.Clients; i++ {
			rec, s := trace.Pipe()
			streams = append(streams, s)
			chip.AddThread(s)
			wg.Add(1)
			if c.Saturated {
				client := h.Client
				if c.RowPlans {
					client = h.ClientRow
				}
				go func(i int, rec *trace.Recorder) {
					defer wg.Done()
					n, err := client(rec, i, clientSeed(DSS, i), 0)
					dones[i] = clientDone{work: n, err: err}
				}(i, rec)
			} else {
				go func(i int, rec *trace.Recorder) {
					defer wg.Done()
					err := h.RunOnce(rec, i, c.UnsatQuery, clientSeed(DSS, i), c.RowPlans)
					dones[i] = clientDone{work: 1, err: err}
				}(i, rec)
			}
		}
	default:
		return CellResult{}, fmt.Errorf("core: unknown workload %v", c.Workload)
	}

	chip.Warm(c.WarmRefs)
	limit := c.WindowCycles
	if !c.Saturated {
		// Unsaturated runs go to completion (bounded by a generous cap).
		limit = 1 << 34
	}
	res := chip.Run(limit)

	// Tear down: stop producers and drain so goroutines exit.
	for _, s := range streams {
		s.Stop()
	}
	for _, s := range streams {
		for {
			if _, ok := s.Next(); !ok {
				break
			}
		}
	}
	wg.Wait()

	out := CellResult{Cell: c, Result: res, Throughput: res.IPC()}
	for i := range dones {
		if err := dones[i].err; err != nil {
			return out, fmt.Errorf("core: client %d: %w", i, err)
		}
		out.Work += dones[i].work
	}
	if !c.Saturated {
		switch c.Workload {
		case OLTP:
			// Paired cells replay the identical transaction sequence
			// (same seed), so per-transaction response time is
			// proportional to CPI on that fixed instruction stream;
			// warming consumes an unknown prefix of transactions, which
			// cancels out of the ratio the experiments report.
			out.ResponseCycles = res.CPI() * nominalTxnInstructions
		case DSS:
			rt := res.ThreadDone[0]
			if rt == 0 {
				rt = res.Cycles
			}
			units := out.Work
			if units == 0 {
				units = 1
			}
			out.ResponseCycles = float64(rt) / float64(units)
		}
	}
	return out, nil
}

// nominalTxnInstructions scales unsaturated OLTP CPI into cycles per
// transaction for reporting; only ratios between cells are meaningful.
const nominalTxnInstructions = 25000

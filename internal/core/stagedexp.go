package core

import (
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/staged"
	"repro/internal/trace"
)

// StagedResult is one execution mode of the Section 6 experiment.
type StagedResult struct {
	Mode string
	// Cycles to process the input (response time).
	Cycles uint64
	// Breakdown fractions of busy cycles.
	CompFrac, IStallFrac, DStallL2Frac float64
	// L1DHitRate over the run.
	L1DHitRate float64
	Rows       int
}

// stagedPlan builds the experiment's pipeline pieces over lineitem:
// scan → filter(shipdate) → group-by-suppkey sum(extendedprice).
func stagedPlan(h *engineTPCH, rows int) (engine.Op, []engine.Pred) {
	ls := h.lineitem.Schema
	preds := []engine.Pred{engine.PredInt(ls.Col("l_shipdate"), engine.LE, dateCut)}
	src := engine.Op(&engine.SeqScan{Table: h.lineitem})
	if rows > 0 {
		src = &engine.Limit{Child: src, N: rows}
	}
	return src, preds
}

// The staged experiment's fixed date cutoff (~75% selectivity).
const dateCut = 1920

// engineTPCH is the minimal view of workload.TPCH the experiment needs;
// defined via an accessor to avoid exporting table internals.
type engineTPCH struct {
	lineitem *engine.Table
	db       *engine.DB
}

// StagedExperiment compares monolithic Volcano execution against the
// staged executors of Section 6.3 on an FC CMP:
//
//	volcano          — one thread pulls tuple-at-a-time through the plan
//	staged-affinity  — one thread, packet-at-a-time (STEPS-style batching)
//	staged-parallel  — packet pool: a source worker plus stage-chain
//	                   consumers, each on its own FC core
//	staged-colocated — the same pool packed onto three contexts of ONE
//	                   LC core (packets stay core-local)
//
// The parallel/colocated pair contrasts spreading the pool across cores
// (parallelism, packets cross the L2) against packing it on one core
// (locality, packets stay L1-resident but contexts time-share).
// rows caps the lineitem prefix processed (0 = 150000).
func (r *Runner) StagedExperiment(rows int) ([]StagedResult, error) {
	if rows == 0 {
		rows = 150000
	}
	h, err := r.TPCH()
	if err != nil {
		return nil, err
	}
	lineitem := h.Lineitem()
	et := &engineTPCH{lineitem: lineitem, db: h.DB}

	var out []StagedResult

	// Mode 1: monolithic Volcano plan on one FC core. A pass-through Map
	// counts the rows reaching the aggregate so all modes report the same
	// work unit (rows absorbed by the final operator).
	{
		src, preds := stagedPlan(et, rows)
		ls := lineitem.Schema
		n := 0
		counted := &engine.Map{
			Child: &engine.Filter{Child: src, Preds: preds},
			Out:   ls,
			Fn: func(in, out []byte) {
				copy(out, in)
				n++
			},
			Cost: 1,
		}
		plan := &engine.HashAgg{
			Child:     counted,
			GroupCols: []int{ls.Col("l_suppkey")},
			Aggs:      []engine.AggSpec{{Func: engine.Sum, Col: ls.Col("l_extendedprice"), Name: "rev"}},
			Expected:  4096,
		}
		res, err := r.stagedRun("volcano", sim.FatCamp, func(ctxs []*engine.Ctx) (int, error) {
			err := engine.Run(ctxs[0], plan, nil)
			return n, err
		}, 1, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}

	// Mode 2: staged, packet-at-a-time on one FC core (affinity).
	{
		res, err := r.stagedRun("staged-affinity", sim.FatCamp, func(ctxs []*engine.Ctx) (int, error) {
			src, preds := stagedPlan(et, rows)
			pl := &staged.Pipeline{
				DB:     et.db,
				Source: src,
				Stages: []staged.Stage{staged.FilterStage(et.db, lineitem.Schema, preds)},
				Sink:   r.stagedSink(ctxs[0], et),
			}
			return pl.RunAffinity(ctxs[0])
		}, 1, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}

	// Modes 3 and 4 drive the same pool. The sink's hash table lives in a
	// context of its own: the consumers fold rows into it under the
	// pipeline's sink lock while allocating their own packets lock-free,
	// so it must not share a consumer's arena.
	pool := func(ctxs []*engine.Ctx) (int, error) {
		sink := et.db.NewCtx(nil, 32+len(ctxs), 64<<20)
		defer sink.Work.Release() // RunParallel joins its workers
		src, preds := stagedPlan(et, rows)
		pl := &staged.Pipeline{
			DB:     et.db,
			Source: src,
			Stages: []staged.Stage{staged.FilterStage(et.db, lineitem.Schema, preds)},
			Sink:   r.stagedSink(sink, et),
		}
		return pl.RunParallel(ctxs)
	}

	// Mode 3: staged pool (source + two consumers) on three FC cores.
	{
		res, err := r.stagedRun("staged-parallel", sim.FatCamp, pool, 3, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}

	// Mode 4: the same pool on three contexts of ONE LC core, so
	// producers and consumers share that core's L1s (the paper's
	// co-location lever, applied to the pool's workers).
	{
		placement := []int{0, 4, 8} // contexts 0,1,2 of core 0 (4-core LC)
		res, err := r.stagedRun("staged-colocated", sim.LeanCamp, pool, 3, placement)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

func (r *Runner) stagedSink(ctx *engine.Ctx, et *engineTPCH) staged.Sink {
	ls := et.lineitem.Schema
	return staged.NewAggSink(ctx, et.db, ls, ls.Col("l_suppkey"), ls.Col("l_extendedprice"))
}

// stagedRun executes fn's workers on a fresh chip, one trace per worker.
func (r *Runner) stagedRun(mode string, camp sim.Camp, fn func([]*engine.Ctx) (int, error), workers int, placement []int) (StagedResult, error) {
	h, err := r.TPCH()
	if err != nil {
		return StagedResult{}, err
	}
	cell := DefaultCell(camp, DSS, true)
	chip := sim.NewChip(cell.SimConfig())

	ctxs := make([]*engine.Ctx, workers)
	recs := make([]*trace.Recorder, workers)
	streams := make([]*trace.Stream, workers)
	for i := 0; i < workers; i++ {
		rec, s := trace.Pipe()
		recs[i], streams[i] = rec, s
		ctxs[i] = h.DB.NewCtx(rec, 32+i, 64<<20)
		if placement != nil {
			chip.AddThreadAt(s, placement[i])
		} else {
			chip.AddThread(s)
		}
	}

	var rows int
	var runErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rows, runErr = fn(ctxs)
		for _, rec := range recs {
			rec.Close()
		}
	}()

	chip.Warm(50000)
	res := chip.Run(1 << 34)
	for _, s := range streams {
		s.Stop()
		for {
			if _, ok := s.Next(); !ok {
				break
			}
		}
	}
	wg.Wait()
	releaseWork(ctxs)
	if runErr != nil {
		return StagedResult{}, fmt.Errorf("core: staged mode %s: %w", mode, runErr)
	}

	var last uint64
	for _, d := range res.ThreadDone {
		if d > last {
			last = d
		}
	}
	if last == 0 {
		last = res.Cycles
	}
	st := res.Cache
	hitRate := 0.0
	if tot := st.L1DHits + st.L1DMisses; tot > 0 {
		hitRate = float64(st.L1DHits) / float64(tot)
	}
	busy := float64(res.Breakdown.Busy())
	sr := StagedResult{Mode: mode, Cycles: last, Rows: rows, L1DHitRate: hitRate}
	if busy > 0 {
		sr.CompFrac = float64(res.Breakdown.Computation()) / busy
		sr.IStallFrac = float64(res.Breakdown.IStalls()) / busy
		sr.DStallL2Frac = float64(res.Breakdown.DStallL2()) / busy
	}
	return sr, nil
}

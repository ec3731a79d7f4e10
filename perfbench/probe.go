package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// lcReplayCycles caps the lean-camp replay: its host speed is the
// metric, and LC simulates an order of magnitude slower than FC, so a
// prefix is enough to measure it.
const lcReplayCycles = 1_000_000

// traceSlot is the workspace slot the vec-dss subject uses, so the
// recorded trace is the one the server's vectorized side simulates.
const traceSlot = 72

// recordTrace runs the vectorized serial plan of query q into a pipe
// that it drains itself, with no simulation, and returns the records.
func recordTrace(h *workload.TPCH, q int, p workload.QueryParams) ([]trace.Ref, error) {
	rec, s := trace.Pipe()
	ctx := h.DB.NewCtx(rec, traceSlot, 64<<20)
	var runErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer rec.Close()
		_, runErr = h.RunQuery(ctx, q, p)
	}()
	var refs []trace.Ref
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		refs = append(refs, r)
	}
	wg.Wait()
	return refs, runErr
}

// replay re-emits recorded records into rec, one record per call, so
// the consumer sees the recorded stream unchanged.
func replay(rec *trace.Recorder, refs []trace.Ref) {
	defer rec.Close()
	for i, r := range refs {
		if i%4096 == 0 && rec.Stopped() {
			return
		}
		switch r.Kind() {
		case trace.Exec:
			rec.Exec(mem.CodeSeg{Base: r.Addr(), Size: mem.LineSize}, r.Count())
		case trace.Load:
			rec.Load(r.Addr(), r.Dep())
		case trace.Store:
			rec.Store(r.Addr())
		case trace.Prefetch:
			rec.Prefetch(r.Addr())
		case trace.Mark:
			rec.Mark(r.MarkID(), r.MarkBegin())
		}
	}
}

// simulate replays refs on a fresh chip of cell: functional warming,
// then a timed run of at most limit cycles. Warm and run are spans of
// their own under parent, named for camp.
func simulate(p *probe, parent *Open, camp string, cell core.Cell, refs []trace.Ref, limit uint64) (sim.Result, time.Duration) {
	chip := sim.NewChip(cell.SimConfig())
	rec, s := trace.Pipe()
	chip.AddThread(s)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		replay(rec, refs)
	}()
	wsp := p.span(parent, 0, "sim."+camp+".warm")
	chip.Warm(cell.WarmRefs)
	wsp.End()
	rsp := p.span(parent, 0, "sim."+camp+".run")
	t := time.Now()
	res := chip.Run(limit)
	d := time.Since(t)
	rsp.End()
	s.Stop()
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	wg.Wait()
	return res, d
}

// dssLayerProbe measures the trace and sim layers under one serve-dss
// operation: the subject query's vectorized plan is recorded with no
// simulation, then replayed on the fat-camp chip of vec-dss requests
// (to completion) and on its lean-camp twin (a capped prefix).
func dssLayerProbe(p *probe, root *Open, h *workload.TPCH, op dssOp, creq core.Request) error {
	params := workload.RandomParams(rand.New(rand.NewSource(creq.WithDefaults().Seed)))
	gsp := p.span(root, 0, fmt.Sprintf("workload.tracegen.q%d", op.Query))
	t := time.Now()
	refs, err := recordTrace(h, op.Query, params)
	gen := time.Since(t)
	gsp.End()
	if err != nil {
		return fmt.Errorf("trace generation: %w", err)
	}
	p.acc.add("trace.records", float64(len(refs)))
	p.acc.add("trace.gen_s", gen.Seconds())
	p.acc.add("trace.ops", 1)
	for _, c := range []struct {
		name  string
		camp  sim.Camp
		limit uint64
	}{{"fc", sim.FatCamp, 1 << 34}, {"lc", sim.LeanCamp, lcReplayCycles}} {
		cell := core.DefaultModeCell(core.ModeVecDSS, c.camp)
		sp := p.span(root, 0, "sim."+c.name+".replay")
		res, d := simulate(p, sp, c.name, cell, refs, c.limit)
		sp.End()
		if res.Instructions == 0 {
			return fmt.Errorf("%s replay of q%d simulated no instructions", c.name, op.Query)
		}
		p.acc.add("sim."+c.name+".cycles", float64(res.Cycles))
		p.acc.add("sim."+c.name+".run_s", d.Seconds())
	}
	return nil
}

// dssProbeLayers fills the trace and sim-speed metrics of dssLayerProbe.
func dssProbeLayers(acc *counters, rows []LedgerRow, m map[string]float64) {
	for _, q := range []int{1, 6, 13} {
		m[fmt.Sprintf("workload.tracegen_s.q%d", q)] = selfMean(rows, fmt.Sprintf("workload.tracegen.q%d", q))
	}
	m["trace.records_per_op"] = ratio(acc.get("trace.records"), acc.get("trace.ops"))
	m["trace.records_per_s"] = ratio(acc.get("trace.records"), acc.get("trace.gen_s"))
	m["sim.run_s"] = selfMean(rows, "sim.fc.run")
	m["sim.warm_s"] = selfMean(rows, "sim.fc.warm")
	for _, camp := range []string{"fc", "lc"} {
		m["sim."+camp+".mcycles_per_s"] = ratio(acc.get("sim."+camp+".cycles")/1e6, acc.get("sim."+camp+".run_s"))
	}
}

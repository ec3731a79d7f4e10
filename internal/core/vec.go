// Vectorized-executor experiments: one serial DSS query traced on a
// fresh simulated chip, executed either by the row-at-a-time reference
// operators or by the vectorized batch core, on identical geometry. The
// cycle ratio is the payoff of block-at-a-time execution — amortized
// iterator overhead, ranged instead of per-tuple memory traffic — which
// is the cache-conscious restructuring the paper argues CMP database
// servers need before more cores help.

package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// VecDSSResult is one serial-query measurement on one executor.
type VecDSSResult struct {
	Camp  sim.Camp
	Query int
	// Vectorized reports which executor ran the plan.
	Vectorized bool
	// Cycles is the query's completion cycle (response time).
	Cycles uint64
	Result sim.Result
	Rows   int
	// Digest is RowsDigest of the result set: both executors must
	// produce byte-identical rows, and the unified API exposes this as
	// the run's logical-output fingerprint.
	Digest uint64
}

// Throughput returns queries per million simulated cycles.
func (r VecDSSResult) Throughput() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return 1e6 / float64(r.Cycles)
}

// RunVecDSS executes one serial query (1, 6, or 13) to completion on a
// fresh chip described by cell, on the vectorized executor or the
// row-at-a-time reference path. An optional join mode pins the hash-join
// strategy of joining plans (Q13); omitted, the auto policy decides.
func (r *Runner) RunVecDSS(cell Cell, q int, vectorized bool, seed int64, mode ...engine.JoinMode) (VecDSSResult, error) {
	if q != 1 && q != 6 && q != 13 {
		return VecDSSResult{}, fmt.Errorf("core: vectorized DSS query %d (have 1, 6, 13)", q)
	}
	h, err := r.TPCH()
	if err != nil {
		return VecDSSResult{}, err
	}
	chip := sim.NewChip(cell.SimConfig())

	rec, s := trace.Pipe()
	chip.AddThread(s)
	ctx := h.DB.NewCtx(rec, 72, 64<<20)
	ctx.Join = r.Join
	if len(mode) > 0 {
		ctx.JoinMode = mode[0]
	}

	p := workload.RandomParams(rand.New(rand.NewSource(seed)))
	var rows int
	var digest uint64
	var runErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer rec.Close()
		run := h.RunQueryRow
		if vectorized {
			run = h.RunQuery
		}
		v, err := run(ctx, q, p)
		rows, digest, runErr = len(v), RowsDigest(v), err
	}()

	warm := cell.WarmRefs
	if warm <= 0 {
		warm = 5000
	}
	chip.Warm(warm)
	res := chip.Run(1 << 34)
	s.Stop()
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	wg.Wait()
	ctx.Work.Release()
	if runErr != nil {
		return VecDSSResult{}, fmt.Errorf("core: vec DSS q%d: %w", q, runErr)
	}

	cycles := res.ThreadDone[0]
	if cycles == 0 {
		cycles = res.Cycles
	}
	return VecDSSResult{
		Camp: cell.Camp, Query: q, Vectorized: vectorized,
		Cycles: cycles, Result: res, Rows: rows, Digest: digest,
	}, nil
}

// VectorizedSpeedup measures query q on both executors on identical chip
// geometry and returns (row, vectorized, speedup): cycles of the
// row-at-a-time path over cycles of the vectorized path.
//
// Deprecated: build a Request with ModeVecDSS and call Run.
func (r *Runner) VectorizedSpeedup(cell Cell, q int, seed int64) (VecDSSResult, VecDSSResult, float64, error) {
	res, err := r.Run(context.Background(), Request{Mode: ModeVecDSS, Query: q, Seed: seed, Cell: &cell})
	if err != nil {
		return VecDSSResult{}, VecDSSResult{}, 0, err
	}
	unpack := func(s Side, vectorized bool) VecDSSResult {
		return VecDSSResult{
			Camp: cell.Camp, Query: q, Vectorized: vectorized,
			Cycles: s.Cycles, Result: s.Result, Rows: s.Rows, Digest: s.Digest,
		}
	}
	return unpack(res.Baseline, false), unpack(res.Main, true), res.SpeedupX, nil
}

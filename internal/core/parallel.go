// Intra-query parallelism experiments: one DSS query executed by the
// morsel-driven parallel executor, each worker bound to its own hardware
// context of a fresh simulated chip. Cycles-to-completion across worker
// counts measures how much of the chip a single query can use — the
// restructuring-for-CMPs opportunity the paper argues for.

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

// ParallelJoinQuery selects the Q13 join core (partitioned parallel hash
// join) in RunParallelDSS, alongside the real analogs 1 and 6.
const ParallelJoinQuery = 13

// ParallelDSSResult is one parallel-query measurement.
type ParallelDSSResult struct {
	Camp    sim.Camp
	Query   int
	Workers int
	// Cycles is the completion cycle of the slowest worker: the query's
	// parallel response time.
	Cycles uint64
	Result sim.Result
	// Rows is result rows (queries) or join output rows (join mode).
	Rows int
	// Digest fingerprints the row count only: multi-worker float
	// aggregates agree with serial runs up to addition order, and the
	// addition order follows morsel claiming, so value bits are not
	// stable across executions.
	Digest uint64
}

// RunParallelDSS executes one query with the morsel-driven executor on a
// fresh chip described by cell (camp, cores, L2 geometry, warming):
// workers worker goroutines, each with its own trace stream on its own
// hardware context. q is 1, 6, or ParallelJoinQuery. cell.Cores is grown
// to workers when smaller, so every worker has a core of its own (FC has
// one context per core; LC cores carry several contexts each); callers
// comparing worker counts must pass the same cell geometry for each —
// ParallelSpeedup does — or the cycle ratio mixes in hardware scaling.
// An optional join mode pins the hash-join strategy of joining plans
// (Q13); omitted, the auto policy decides per worker partition.
func (r *Runner) RunParallelDSS(cell Cell, q, workers int, seed int64, mode ...engine.JoinMode) (ParallelDSSResult, error) {
	if workers <= 0 {
		return ParallelDSSResult{}, fmt.Errorf("core: parallel DSS with %d workers", workers)
	}
	h, err := r.TPCH()
	if err != nil {
		return ParallelDSSResult{}, err
	}
	if cell.Cores < workers {
		cell.Cores = workers
	}
	chip := sim.NewChip(cell.SimConfig())

	ctxs := make([]*engine.Ctx, workers)
	recs := make([]*trace.Recorder, workers)
	streams := make([]*trace.Stream, workers)
	for w := 0; w < workers; w++ {
		// Tight pipes: which worker claims which morsel must be decided
		// at simulated pace, not by which goroutine the host happens to
		// schedule first — the vectorized executor's traces are short
		// enough that the default pipe slack would cover a whole query.
		rec, s := trace.PipeSized(256, 2)
		recs[w], streams[w] = rec, s
		chip.AddThread(s)
		ctxs[w] = h.DB.NewCtx(rec, 64+w, 64<<20)
		ctxs[w].Join = r.Join
		if len(mode) > 0 {
			ctxs[w].JoinMode = mode[0]
		}
	}

	p := workload.RandomParams(rand.New(rand.NewSource(seed)))
	var rows int
	var runErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if q == ParallelJoinQuery {
			rows, runErr = h.OrdersPerCustomerParallel(ctxs)
		} else {
			var res [][]engine.Value
			res, runErr = h.RunQueryParallel(ctxs, q, p)
			rows = len(res)
		}
		for _, rec := range recs {
			rec.Close()
		}
	}()

	warm := cell.WarmRefs
	if warm <= 0 {
		warm = 50000
	}
	chip.Warm(warm)
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
		return ParallelDSSResult{}, fmt.Errorf("core: parallel q%d x%d: %w", q, workers, runErr)
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
	return ParallelDSSResult{
		Camp: cell.Camp, Query: q, Workers: workers,
		Cycles: last, Result: res, Rows: rows, Digest: countDigest(rows),
	}, nil
}

// ParallelSpeedup runs q at each worker count on the SAME chip geometry
// (cell.Cores pinned to the largest count up front, so the ratio
// measures executor scaling, not hardware scaling) and returns cycles
// per count plus the speedup of the last count over the first.
//
// Deprecated: build a Request with ModeParallelDSS (WorkerCounts for a
// custom sweep) and call Run.
func (r *Runner) ParallelSpeedup(cell Cell, q int, counts []int, seed int64) ([]ParallelDSSResult, float64, error) {
	if len(counts) == 0 {
		counts = []int{1, 2, 4}
	}
	res, err := r.Run(context.Background(), Request{
		Mode: ModeParallelDSS, Query: q, Seed: seed,
		Workers: counts[len(counts)-1], WorkerCounts: counts, Cell: &cell,
	})
	if err != nil {
		return nil, 0, err
	}
	out := make([]ParallelDSSResult, 0, len(res.Sweep))
	for _, s := range res.Sweep {
		out = append(out, ParallelDSSResult{
			Camp: cell.Camp, Query: q, Workers: s.Workers,
			Cycles: s.Cycles, Result: s.Result, Rows: s.Rows, Digest: s.Digest,
		})
	}
	return out, res.SpeedupX, nil
}

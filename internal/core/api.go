// The unified execution API: one typed Request describing what to run
// (mode, query or transaction mix, clients, partitioning, geometry) and
// one Result carrying every measurement the drivers report. Runner.Run
// is the single entry point behind cmd/cmpsim, cmd/benchjson, and
// cmd/dbserver; the historical multi-return experiment functions
// (VectorizedSpeedup, SharedSpeedup, ParallelSpeedup, StagedOLTPSpeedup,
// StagedOLTPScaling) survive as thin deprecated wrappers over it.

package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/oltp"
	"repro/internal/share"
	"repro/internal/sim"
)

// Mode names one execution mode of the unified request API.
type Mode string

// The four request modes. Every mode is a paired measurement: the
// subject execution and its reference twin on identical chip geometry.
const (
	// ModeVecDSS runs one serial DSS query on the vectorized executor
	// against the row-at-a-time reference path.
	ModeVecDSS Mode = "vec-dss"
	// ModeSharedDSS runs K concurrent DSS clients through the circular
	// shared-scan registry against K private scans.
	ModeSharedDSS Mode = "shared-dss"
	// ModeParallelDSS runs one DSS query on the morsel-driven parallel
	// executor across a sweep of worker counts.
	ModeParallelDSS Mode = "parallel-dss"
	// ModeStagedOLTP runs a deterministic transaction batch on the
	// cohort-scheduled staged executor (optionally partitioned) against
	// the monolithic reference, digests checked byte-identical.
	ModeStagedOLTP Mode = "staged-oltp"
)

// ParseMode maps a wire/flag string onto a Mode.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case ModeVecDSS, ModeSharedDSS, ModeParallelDSS, ModeStagedOLTP:
		return Mode(s), nil
	}
	return "", &ValidationError{Field: "mode", Reason: fmt.Sprintf("unknown mode %q (have vec-dss, shared-dss, parallel-dss, staged-oltp)", s)}
}

// ValidationError reports a request or option field that fails
// validation before any simulation work starts.
type ValidationError struct {
	Field  string
	Reason string
}

func (e *ValidationError) Error() string {
	return "core: invalid " + e.Field + ": " + e.Reason
}

// Request describes one unified-API execution. The zero value of every
// field means "mode default"; WithDefaults resolves them in one place.
type Request struct {
	Mode Mode

	// Query is the DSS analog: 1, 6, or 13 (shared-dss also accepts 0
	// for the Q1/Q6/Q13 mix). Default 6.
	Query int
	// Clients is the shared-dss consumer count or the staged-oltp
	// logical client-stream count. Default 8.
	Clients int
	// Workers is the parallel-dss target worker count. Default 4.
	Workers int
	// WorkerCounts optionally sweeps parallel-dss worker counts on one
	// pinned chip geometry. Default {1, Workers}.
	WorkerCounts []int
	// Txns is transactions per staged-oltp client. Default 8.
	Txns int
	// Cohort is the staged-oltp in-flight window. Default 16.
	Cohort int
	// Parts partitions the staged-oltp cohort side by home warehouse.
	// Default 1.
	Parts int
	// PartCounts optionally sweeps staged-oltp partition counts against
	// one monolithic reference. Default {Parts}.
	PartCounts []int
	// RemotePct is the staged-oltp cross-warehouse draw percentage.
	RemotePct int
	// NativeWorkers, when non-empty, additionally runs the query natively
	// on the host (trace-free, wall-clock timed) at each listed worker
	// count, populating Result.Native. DSS modes with a single query only.
	NativeWorkers []int
	// NativeZeroCopy additionally measures each native worker count with
	// borrowed page-aliasing scan blocks, recording the copy-vs-borrow
	// pair side by side. Requires NativeWorkers.
	NativeZeroCopy bool
	// JoinMode pins the hash-join strategy of joining plans (Q13):
	// "chained", "partitioned", "prefetch", or ""/"auto" for the
	// build-size policy. Applies to both the traced runs and the native
	// sweep.
	JoinMode string
	// Seed drives every deterministic input stream. Default 7.
	Seed int64
	// Cell overrides the chip geometry; nil picks DefaultModeCell on the
	// fat camp.
	Cell *Cell
	// Trace collects dual-clock spans (Result.Traces) for the subject
	// executions. Off by default: span markers in the trace stream shift
	// chunk boundaries, so traced and untraced runs are separate
	// experiments — never compare cycles across the two.
	Trace bool
}

// DefaultModeCell is the baseline geometry for mode on camp: the paper's
// 4-core chip with the mode's functional-warming budget (heavy warming
// would consume a whole measured run for the short-trace modes).
func DefaultModeCell(mode Mode, camp sim.Camp) Cell {
	switch mode {
	case ModeStagedOLTP:
		c := DefaultCell(camp, OLTP, false)
		c.WarmRefs = 10000
		return c
	case ModeVecDSS:
		c := DefaultCell(camp, DSS, true)
		c.WarmRefs = 5000
		return c
	case ModeParallelDSS:
		c := DefaultCell(camp, DSS, true)
		c.WarmRefs = 50000
		return c
	default: // ModeSharedDSS and unknown: the multi-client DSS baseline.
		c := DefaultCell(camp, DSS, true)
		c.WarmRefs = 20000
		return c
	}
}

// WithDefaults resolves every zero-valued field to its mode default,
// including materializing the geometry cell. Negative values are left in
// place for Validate to reject.
func (q Request) WithDefaults() Request {
	if q.Query == 0 && q.Mode != ModeSharedDSS {
		q.Query = 6
	}
	if q.Clients == 0 {
		q.Clients = 8
	}
	if q.Workers == 0 {
		q.Workers = 4
	}
	if q.Txns == 0 {
		q.Txns = 8
	}
	if q.Cohort == 0 {
		q.Cohort = 16
	}
	if q.Parts == 0 {
		q.Parts = 1
	}
	if q.Seed == 0 {
		q.Seed = 7
	}
	if q.Mode == ModeParallelDSS && len(q.WorkerCounts) == 0 {
		q.WorkerCounts = []int{1, q.Workers}
	}
	if q.Mode == ModeStagedOLTP && len(q.PartCounts) == 0 {
		q.PartCounts = []int{q.Parts}
	}
	if q.Cell == nil {
		cell := DefaultModeCell(q.Mode, sim.FatCamp)
		q.Cell = &cell
	}
	return q
}

// Validate rejects an unrunnable request with a *ValidationError. It
// assumes WithDefaults has resolved zero values; Run applies both.
func (q Request) Validate() error {
	if _, err := ParseMode(string(q.Mode)); err != nil {
		return err
	}
	switch q.Mode {
	case ModeVecDSS, ModeParallelDSS:
		if q.Query != 1 && q.Query != 6 && q.Query != 13 {
			return &ValidationError{Field: "query", Reason: fmt.Sprintf("query %d (have 1, 6, 13)", q.Query)}
		}
	case ModeSharedDSS:
		if q.Query != 0 && q.Query != 1 && q.Query != 6 && q.Query != 13 {
			return &ValidationError{Field: "query", Reason: fmt.Sprintf("query %d (have 1, 6, 13, or 0 for the mix)", q.Query)}
		}
	}
	if q.Clients < 1 {
		return &ValidationError{Field: "clients", Reason: fmt.Sprintf("%d clients (need >= 1)", q.Clients)}
	}
	if q.Workers < 1 {
		return &ValidationError{Field: "workers", Reason: fmt.Sprintf("%d workers (need >= 1)", q.Workers)}
	}
	for _, n := range q.WorkerCounts {
		if n < 1 {
			return &ValidationError{Field: "workers", Reason: fmt.Sprintf("worker count %d (need >= 1)", n)}
		}
	}
	if len(q.NativeWorkers) > 0 {
		if q.Mode == ModeStagedOLTP {
			return &ValidationError{Field: "native_workers", Reason: "native execution is DSS-only (staged-oltp has no native path)"}
		}
		if q.Query != 1 && q.Query != 6 && q.Query != 13 {
			return &ValidationError{Field: "native_workers", Reason: fmt.Sprintf("native execution needs a single query 1, 6, or 13 (query %d)", q.Query)}
		}
		for _, n := range q.NativeWorkers {
			if n < 1 {
				return &ValidationError{Field: "native_workers", Reason: fmt.Sprintf("native worker count %d (need >= 1)", n)}
			}
		}
	}
	if q.NativeZeroCopy && len(q.NativeWorkers) == 0 {
		return &ValidationError{Field: "native_zero_copy", Reason: "zero-copy native measurement needs native_workers"}
	}
	if _, err := engine.ParseJoinMode(q.JoinMode); err != nil {
		return &ValidationError{Field: "join_mode", Reason: err.Error()}
	}
	if q.Mode == ModeStagedOLTP {
		o := q.stagedOpts(q.Parts)
		if err := o.Validate(); err != nil {
			return err
		}
		for _, p := range q.PartCounts {
			if err := q.stagedOpts(p).Validate(); err != nil {
				return err
			}
		}
	}
	return nil
}

// joinMode returns the request's parsed hash-join strategy (Validate has
// already rejected unparseable values; a bad string here degrades to
// auto).
func (q Request) joinMode() engine.JoinMode {
	m, _ := engine.ParseJoinMode(q.JoinMode)
	return m
}

// stagedOpts maps the request onto the staged-OLTP option block at one
// partition count.
func (q Request) stagedOpts(parts int) StagedOLTPOpts {
	return StagedOLTPOpts{
		Clients: q.Clients, PerClient: q.Txns, Cohort: q.Cohort,
		Seed: q.Seed, Parts: parts, RemotePct: q.RemotePct, Trace: q.Trace,
	}.WithDefaults()
}

// Side is one traced execution inside a Result: the measured subject,
// its reference twin, or one sweep point.
type Side struct {
	// Label names the execution: "row", "vectorized", "unshared",
	// "shared", "parallel-N", "monolithic", "cohort-N".
	Label  string
	Cycles uint64
	Result sim.Result
	// Rows is DSS result rows; Txns is OLTP transactions committed.
	Rows int
	Txns int
	// Digest fingerprints the execution's logical output: the database
	// StateDigest for OLTP, RowsDigest of the result set for serial DSS,
	// a row-count digest for parallel DSS (float addition order varies
	// with morsel claiming, so value bits are not comparable).
	Digest uint64
	// Workers / Parts identify the sweep point where applicable.
	Workers int
	Parts   int
	Fenced  int
	Sched   oltp.Stats
	PerPart []oltp.Stats
	Scans   share.Stats
	Reuse   share.CacheStats
}

// Stalls is the wire/report-friendly cycle-accounting breakdown of one
// execution: aggregate core cycles by the paper's stall taxonomy, summed
// over active cores for the measured window.
type Stalls struct {
	Computation uint64 `json:"computation"`
	IStallL2    uint64 `json:"istall_l2"`
	IStallMem   uint64 `json:"istall_mem"`
	DStallL2    uint64 `json:"dstall_l2"`
	DStallMem   uint64 `json:"dstall_mem"`
	DStallCoh   uint64 `json:"dstall_coh"`
	Other       uint64 `json:"other"`
	Idle        uint64 `json:"idle"`
	// Busy is the non-idle total — the denominator of the paper's
	// execution-time breakdowns.
	Busy uint64 `json:"busy"`
}

// StallsOf flattens a simulator breakdown into the wire form.
func StallsOf(r sim.Result) Stalls {
	b := r.Breakdown
	return Stalls{
		Computation: b.Cycles[sim.KindComp],
		IStallL2:    b.Cycles[sim.KindIStallL2],
		IStallMem:   b.Cycles[sim.KindIStallMem],
		DStallL2:    b.Cycles[sim.KindDStallL2],
		DStallMem:   b.Cycles[sim.KindDStallMem],
		DStallCoh:   b.Cycles[sim.KindDStallCoh],
		Other:       b.Cycles[sim.KindOther],
		Idle:        b.Cycles[sim.KindIdle],
		Busy:        b.Busy(),
	}
}

// Stalls returns this side's cycle-accounting breakdown.
func (s Side) Stalls() Stalls { return StallsOf(s.Result) }

// IStallFrac is the fraction of busy cycles lost to instruction stalls.
func (s Side) IStallFrac() float64 {
	busy := s.Result.Breakdown.Busy()
	if busy == 0 {
		return 0
	}
	return float64(s.Result.Breakdown.IStalls()) / float64(busy)
}

// PerMcycle is work units (rows' queries or transactions) completed per
// million simulated cycles.
func (s Side) PerMcycle(units int) float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(units) * 1e6 / float64(s.Cycles)
}

// Result is one unified-API measurement: the subject side, its reference
// twin, and (for sweeping modes) every sweep point.
type Result struct {
	Mode Mode
	// Request echoes the fully-defaulted request that ran.
	Request Request
	// Baseline is the reference execution: row-at-a-time, unshared,
	// the first worker count, or the monolithic transaction path.
	Baseline Side
	// Main is the subject: vectorized, shared, the last worker count, or
	// the cohort side at the last partition count.
	Main Side
	// Sweep holds every sweep point for parallel-dss (worker counts) and
	// staged-oltp (partition counts); Main aliases the last entry.
	Sweep []Side
	// SpeedupX is Baseline cycles over Main cycles.
	SpeedupX float64
	// ScalingX is each sweep point's cycle speedup over Sweep[0].
	ScalingX []float64
	// L1IMissReductionX is the staged-oltp instruction-miss payoff:
	// monolithic L1I misses over cohort L1I misses.
	L1IMissReductionX float64
	// Digest is Main.Digest: the value the server's byte-identity
	// acceptance compares against batch runs.
	Digest uint64
	// Traces holds one dual-clock span run per traced execution when
	// Request.Trace is set (subject sides; sweep modes collect one per
	// sweep point). Exportable as Chrome trace-event JSON via
	// obs.WriteChrome.
	Traces []obs.Run
	// Native holds the host-execution sweep when Request.NativeWorkers is
	// set: the interpreted 1-worker reference first, then one compiled
	// point per requested worker count (wall-clock, best of 50) — two per
	// count when NativeZeroCopy also measures the borrowed flavor.
	Native []NativeRun
	// NativeRows / NativeRowsPerSec headline the best compiled native
	// point: base-table rows scanned and host throughput.
	NativeRows       int
	NativeRowsPerSec float64
}

// Run executes one unified request: it applies defaults, validates, runs
// the mode's paired measurement on identical chip geometry, and returns
// the typed result. Every side is simulated once. The chip pulls each
// thread's trace at simulated pace, blocking on a producer that falls
// behind, so a descheduled goroutine cannot stretch a side's cycles.
// Sides whose threads share no work (both vec-dss sides, the unshared
// shared-dss side, 1-worker parallel-dss) are a pure function of their
// traces and repeat bit for bit (TestDSSSidesRepeat). Sides whose morsel
// claims or shared-scan attach points follow host timing (the shared
// side, multi-worker parallel-dss) vary run to run; one run reports one
// sample of that spread. staged-oltp digests are checked byte-identical
// against the monolithic reference. ctx cancels between sub-runs (a
// simulated run in flight is not interrupted).
func (r *Runner) Run(ctx context.Context, req Request) (Result, error) {
	req = req.WithDefaults()
	if err := req.Validate(); err != nil {
		return Result{}, err
	}
	res := Result{Mode: req.Mode, Request: req}
	var err error
	switch req.Mode {
	case ModeVecDSS:
		err = r.runVecPair(ctx, req, &res)
	case ModeSharedDSS:
		err = r.runSharedPair(ctx, req, &res)
	case ModeParallelDSS:
		err = r.runParallelSweep(ctx, req, &res)
	case ModeStagedOLTP:
		err = r.runStagedSweep(ctx, req, &res)
	}
	if err != nil {
		return Result{}, err
	}
	res.Digest = res.Main.Digest
	if res.Main.Cycles > 0 {
		res.SpeedupX = float64(res.Baseline.Cycles) / float64(res.Main.Cycles)
	}
	if len(req.NativeWorkers) > 0 {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		native, err := r.RunNativeDSS(req.Query, req.NativeWorkers, req.Seed, req.NativeZeroCopy, req.joinMode())
		if err != nil {
			return Result{}, err
		}
		res.Native = native
		for _, n := range native {
			if !n.Interpreted && n.RowsPerSec > res.NativeRowsPerSec {
				res.NativeRows, res.NativeRowsPerSec = n.Rows, n.RowsPerSec
			}
		}
	}
	return res, nil
}

func (r *Runner) runVecPair(ctx context.Context, req Request, res *Result) error {
	measure := func(vectorized bool) (VecDSSResult, error) {
		if err := ctx.Err(); err != nil {
			return VecDSSResult{}, err
		}
		return r.RunVecDSS(*req.Cell, req.Query, vectorized, req.Seed, req.joinMode())
	}
	row, err := measure(false)
	if err != nil {
		return err
	}
	vec, err := measure(true)
	if err != nil {
		return err
	}
	res.Baseline = vecSide(row)
	res.Main = vecSide(vec)
	if req.Trace {
		// The vectorized executor has no span plumbing yet: synthesize
		// root-only runs so trace exports treat every mode uniformly.
		res.Traces = append(res.Traces,
			syntheticRun(res.Baseline.Label, res.Baseline.Cycles),
			syntheticRun(res.Main.Label, res.Main.Cycles))
	}
	return nil
}

// syntheticRun builds a root-only trace for executors without span
// plumbing: one run span covering [0, cycles].
func syntheticRun(label string, cycles uint64) obs.Run {
	t := obs.NewTracer()
	sp := t.BeginAt(0, 0, label, "run")
	t.StampStart(sp, 0)
	sp.EndAt(cycles)
	return t.Snapshot(label, cycles)
}

func vecSide(v VecDSSResult) Side {
	label := "row"
	if v.Vectorized {
		label = "vectorized"
	}
	return Side{Label: label, Cycles: v.Cycles, Result: v.Result, Rows: v.Rows, Digest: v.Digest}
}

func (r *Runner) runSharedPair(ctx context.Context, req Request, res *Result) error {
	measure := func(shared bool) (SharedDSSResult, error) {
		if err := ctx.Err(); err != nil {
			return SharedDSSResult{}, err
		}
		return r.RunSharedDSSTraced(*req.Cell, req.Query, req.Clients, shared, req.Seed, req.Trace)
	}
	un, err := measure(false)
	if err != nil {
		return err
	}
	sh, err := measure(true)
	if err != nil {
		return err
	}
	res.Baseline = sharedSide(un)
	res.Main = sharedSide(sh)
	for _, v := range []SharedDSSResult{un, sh} {
		if v.Trace != nil {
			res.Traces = append(res.Traces, *v.Trace)
		}
	}
	return nil
}

func sharedSide(v SharedDSSResult) Side {
	label := "unshared"
	if v.Shared {
		label = "shared"
	}
	return Side{
		Label: label, Cycles: v.Cycles, Result: v.Result, Rows: v.Rows,
		Digest: v.Digest, Scans: v.Scans, Reuse: v.Cache,
	}
}

func (r *Runner) runParallelSweep(ctx context.Context, req Request, res *Result) error {
	// One pinned geometry for every count, so the ratio measures
	// executor scaling, not hardware scaling.
	cell := *req.Cell
	for _, n := range req.WorkerCounts {
		if cell.Cores < n {
			cell.Cores = n
		}
	}
	for _, n := range req.WorkerCounts {
		if err := ctx.Err(); err != nil {
			return err
		}
		run, err := r.RunParallelDSS(cell, req.Query, n, req.Seed, req.joinMode())
		if err != nil {
			return err
		}
		res.Sweep = append(res.Sweep, Side{
			Label: fmt.Sprintf("parallel-%d", n), Cycles: run.Cycles,
			Result: run.Result, Rows: run.Rows, Digest: run.Digest, Workers: n,
		})
		if req.Trace {
			// The morsel-driven executor has no span plumbing yet.
			res.Traces = append(res.Traces, syntheticRun(fmt.Sprintf("parallel-%d", n), run.Cycles))
		}
	}
	res.Baseline = res.Sweep[0]
	res.Main = res.Sweep[len(res.Sweep)-1]
	for _, s := range res.Sweep {
		res.ScalingX = append(res.ScalingX, float64(res.Sweep[0].Cycles)/float64(max(s.Cycles, 1)))
	}
	return nil
}

func (r *Runner) runStagedSweep(ctx context.Context, req Request, res *Result) error {
	mono, err := r.RunStagedOLTP(*req.Cell, false, req.stagedOpts(1))
	if err != nil {
		return err
	}
	res.Baseline = stagedSide(mono)
	if mono.Trace != nil {
		res.Traces = append(res.Traces, *mono.Trace)
	}
	for _, p := range req.PartCounts {
		if err := ctx.Err(); err != nil {
			return err
		}
		run, err := r.RunStagedOLTP(*req.Cell, true, req.stagedOpts(p))
		if err != nil {
			return err
		}
		if run.Digest != mono.Digest {
			return fmt.Errorf(
				"core: staged OLTP digest mismatch at parts=%d: %#x vs monolithic %#x (determinism contract violated)",
				p, run.Digest, mono.Digest)
		}
		res.Sweep = append(res.Sweep, stagedSide(run))
		if run.Trace != nil {
			res.Traces = append(res.Traces, *run.Trace)
		}
	}
	res.Main = res.Sweep[len(res.Sweep)-1]
	for _, s := range res.Sweep {
		res.ScalingX = append(res.ScalingX, float64(res.Sweep[0].Cycles)/float64(max(s.Cycles, 1)))
	}
	res.L1IMissReductionX = float64(mono.Result.Cache.L1IMisses) /
		float64(max(res.Main.Result.Cache.L1IMisses, 1))
	return nil
}

func stagedSide(v StagedOLTPResult) Side {
	label := "monolithic"
	if v.Cohorted {
		label = fmt.Sprintf("cohort-%d", v.Parts)
	}
	return Side{
		Label: label, Cycles: v.Cycles, Result: v.Result, Txns: v.Txns,
		Digest: v.Digest, Parts: v.Parts, Fenced: v.Fenced,
		Sched: v.Sched, PerPart: v.PerPart,
	}
}

// stagedResult reconstructs the legacy StagedOLTPResult from a Side for
// the deprecated wrappers.
func (s Side) stagedResult() StagedOLTPResult {
	return StagedOLTPResult{
		Cohorted: s.Label != "monolithic", Parts: s.Parts, Cycles: s.Cycles,
		Result: s.Result, Txns: s.Txns, Digest: s.Digest,
		Sched: s.Sched, PerPart: s.PerPart, Fenced: s.Fenced,
	}
}

// RowsDigest fingerprints a result set: FNV-1a over each row's typed
// values in row order. Two executions that produce the same rows in the
// same order produce the same digest.
func RowsDigest(rows [][]engine.Value) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, row := range rows {
		for _, v := range row {
			buf[0] = byte(v.Kind)
			h.Write(buf[:1])
			switch v.Kind {
			case engine.TFloat:
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.F))
				h.Write(buf[:])
			case engine.TChar:
				h.Write([]byte(v.S))
			default:
				binary.LittleEndian.PutUint64(buf[:], uint64(v.I))
				h.Write(buf[:])
			}
		}
		buf[0] = 0xfe // row separator
		h.Write(buf[:1])
	}
	return h.Sum64()
}

// countDigest fingerprints a bare row count (parallel runs, whose float
// addition order is not reproducible bit-for-bit).
func countDigest(rows int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(rows))
	h.Write(buf[:])
	return h.Sum64()
}

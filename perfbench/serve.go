package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/server/api"
	"repro/internal/workload"
)

// serveEnv is one server behind a loopback listener.
type serveEnv struct {
	srv    *server.Server
	hs     *httptest.Server
	client *http.Client
}

func (e *serveEnv) close() {
	if e == nil {
		return
	}
	e.client.CloseIdleConnections()
	e.hs.Close()
}

// buildServe constructs the server at test scale and forces both
// database builds, so no operation pays for them.
func buildServe(p *probe) (*serveEnv, error) {
	scale := core.TestScale()
	srv := server.New(server.Config{Scale: &scale})
	e := &serveEnv{srv: srv, hs: httptest.NewServer(srv.Handler()), client: &http.Client{}}
	sp := p.span(nil, 0, "workload.build_tpch")
	_, err := srv.Runner().TPCH()
	sp.End()
	if err == nil {
		sp = p.span(nil, 0, "workload.build_tpcc")
		_, err = srv.Runner().TPCC()
		sp.End()
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// post sends one request body to path and decodes the result.
func (e *serveEnv) post(path string, body any) (api.Result, error) {
	var res api.Result
	b, err := json.Marshal(body)
	if err != nil {
		return res, err
	}
	resp, err := e.client.Post(e.hs.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return res, err
	}
	if resp.StatusCode != http.StatusOK {
		var eb api.ErrorBody
		_ = json.Unmarshal(data, &eb) // a body that is not JSON still fails the op below
		return res, fmt.Errorf("HTTP %d: %s", resp.StatusCode, eb.Error)
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return res, fmt.Errorf("decode result: %w", err)
	}
	return res, nil
}

// rowOracle is the row-at-a-time reference answer of one query.
type rowOracle struct {
	Digest uint64
	Rows   int
}

// rowAnswer runs query q on the row operators with a nil recorder.
func rowAnswer(h *workload.TPCH, q int, p workload.QueryParams) (rowOracle, error) {
	rows, err := h.RunQueryRow(h.DB.NewCtx(nil, 110, 64<<20), q, p)
	if err != nil {
		return rowOracle{}, fmt.Errorf("row oracle q%d: %w", q, err)
	}
	return rowOracle{Digest: core.RowsDigest(rows), Rows: len(rows)}, nil
}

// dssOracles holds the expected answers of every serve-dss operation;
// the server's requests leave seeds at their default, so the answers
// are computed once before timing.
type dssOracles struct {
	vec      map[int]rowOracle // by query
	unshared rowOracle         // shared-dss Q6, 4 private scans
	// joinRows is the serial Q13 join core's row count, the answer the
	// parallel-dss Q13 sides report.
	joinRows int
}

func buildDSSOracles(h *workload.TPCH) (*dssOracles, error) {
	seed := core.Request{Mode: core.ModeVecDSS}.WithDefaults().Seed
	o := &dssOracles{vec: make(map[int]rowOracle)}
	for _, q := range []int{1, 6, 13} {
		a, err := rowAnswer(h, q, workload.RandomParams(rand.New(rand.NewSource(seed))))
		if err != nil {
			return nil, err
		}
		o.vec[q] = a
	}
	// The unshared side runs client i with seed+i at a fixed scan phase;
	// its digest combines each client's RowsDigest in client order.
	sh := serveDSSMix[6]
	dh := fnv.New64a()
	var buf [8]byte
	for i := 0; i < sh.Clients; i++ {
		p := workload.RandomParams(rand.New(rand.NewSource(seed + int64(i))))
		p.Phase = float64(i%16) / 80
		a, err := rowAnswer(h, sh.Query, p)
		if err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint64(buf[:], a.Digest)
		dh.Write(buf[:])
		o.unshared.Rows += a.Rows
	}
	o.unshared.Digest = dh.Sum64()
	n, err := h.OrdersPerCustomer(h.DB.NewCtx(nil, 110, 64<<20))
	if err != nil {
		return nil, fmt.Errorf("join oracle: %w", err)
	}
	o.joinRows = n
	return o, nil
}

// check verifies one serve-dss response against the oracles and the
// byte-identity the API promises between its two sides. A side whose
// measurement is empty (warming consumed its whole trace) fails the
// operation without making the answer wrong.
func (o *dssOracles) check(op dssOp, r api.Result) error {
	switch op.Mode {
	case "vec-dss":
		want := api.Digest(o.vec[op.Query].Digest)
		if r.Main.Digest != want || r.Baseline.Digest != want {
			return wrongf("digest: vectorized %s, row %s, oracle %s", r.Main.Digest, r.Baseline.Digest, want)
		}
		if r.Main.Rows != o.vec[op.Query].Rows {
			return wrongf("rows %d, oracle %d", r.Main.Rows, o.vec[op.Query].Rows)
		}
	case "shared-dss":
		if want := api.Digest(o.unshared.Digest); r.Baseline.Digest != want {
			return wrongf("unshared digest %s, oracle %s", r.Baseline.Digest, want)
		}
		if r.Main.Rows != o.unshared.Rows || r.Baseline.Rows != o.unshared.Rows {
			return wrongf("rows: shared %d, unshared %d, oracle %d", r.Main.Rows, r.Baseline.Rows, o.unshared.Rows)
		}
	case "parallel-dss":
		want := o.vec[op.Query].Rows
		if op.Query == core.ParallelJoinQuery {
			want = o.joinRows
		}
		if len(r.Sweep) == 0 {
			return wrongf("no sweep points")
		}
		for _, s := range r.Sweep {
			if s.Rows != want {
				return wrongf("%s rows %d, oracle %d", s.Label, s.Rows, want)
			}
		}
		if r.Baseline.Digest != r.Main.Digest {
			return wrongf("row-count digest: %s vs %s", r.Baseline.Digest, r.Main.Digest)
		}
	}
	for _, s := range append([]api.Side{r.Baseline, r.Main}, r.Sweep...) {
		if s.Instructions == 0 {
			return fmt.Errorf("empty measurement: side %s ran %d cycles, 0 instructions", s.Label, s.Cycles)
		}
	}
	return nil
}

func (op dssOp) wire() api.QueryRequest {
	return api.QueryRequest{Mode: op.Mode, Query: op.Query, Clients: op.Clients, Workers: op.Workers}
}

func (op oltpOp) wire() api.TxnRequest {
	return api.TxnRequest{Clients: op.Clients, Txns: op.Txns, Parts: op.Parts, RemotePct: op.RemotePct}
}

func runServeDSS(cfg config) (*report, error) {
	tr := traceFor(cfg)
	p := &probe{tr: tr}
	env, setups, err := repeatSetup(func() (*serveEnv, error) { return buildServe(p) }, (*serveEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	h, err := env.srv.Runner().TPCH()
	if err != nil {
		return nil, err
	}
	oracles, err := buildDSSOracles(h)
	if err != nil {
		return nil, err
	}
	d := driver{
		// One operation in 12 (parallel-dss Q6 at 4 workers) fails, so
		// 10 blocks leave 110 successes, 11 of them beyond the p90.
		Clients: 2, Block: len(serveDSSMix), Rate: 1.9, MinOps: 10 * len(serveDSSMix),
		Op: func(i int, p *probe) sample {
			op := blockOp(serveDSSMix, cfg.Seed, i)
			return serveOp(env, p, opID(i), op.String(), op.Mode, "/v1/query", op.wire(),
				func(r api.Result) error { return oracles.check(op, r) },
				func(root *Open, creq core.Request) error {
					return dssLayerProbe(p, root, h, op, creq)
				})
		},
		Layers: func(acc *counters, rows []LedgerRow, m map[string]float64) {
			serveLayers(acc, rows, m)
			dssProbeLayers(acc, rows, m)
		},
	}
	return measure(cfg, d, setups, tr), nil
}

func runServeOLTP(cfg config) (*report, error) {
	tr := traceFor(cfg)
	p := &probe{tr: tr}
	env, setups, err := repeatSetup(func() (*serveEnv, error) { return buildServe(p) }, (*serveEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	d := driver{
		Clients: 2, Block: len(serveOLTPMix), Rate: 13, MinOps: minSamplesForTail(tailP),
		Op: func(i int, p *probe) sample {
			op := blockOp(serveOLTPMix, cfg.Seed, i)
			s := serveOp(env, p, opID(i), op.String(), "staged-oltp", "/v1/txn", op.wire(),
				func(r api.Result) error { return checkOLTP(op, r) },
				func(root *Open, creq core.Request) error {
					sp := p.span(root, 0, "workload.build_tpcc")
					w, err := workload.BuildTPCC(env.srv.Runner().ScaleCfg.TPCC)
					sp.End()
					if err != nil {
						return err
					}
					return tpccClientProbe(p, root, w, int64(i)+cfg.Seed)
				})
			if p != nil {
				p.acc.add("oltp.ops", 1)
				if s.Err != nil && strings.Contains(s.Err.Error(), "digest mismatch") {
					p.acc.add("oltp.mismatches", 1)
				}
			}
			return s
		},
		Layers: func(acc *counters, rows []LedgerRow, m map[string]float64) {
			serveLayers(acc, rows, m)
			txns := acc.get("oltp.txns")
			m["oltp.sched_s"] = selfMean(rows, "core.side.cohort")
			m["oltp.parks_per_txn"] = ratio(acc.get("oltp.parks"), txns)
			m["oltp.wounds_per_txn"] = ratio(acc.get("oltp.wounds"), txns)
			m["oltp.fenced_per_txn"] = ratio(acc.get("oltp.fenced"), txns)
			m["oltp.digest_mismatch_rate"] = ratio(acc.get("oltp.mismatches"), acc.get("oltp.ops"))
			m["workload.tpcc_txn_s"] = ratio(acc.get("tpcc.secs"), acc.get("tpcc.txns"))
		},
	}
	return measure(cfg, d, setups, tr), nil
}

// checkOLTP verifies one staged-oltp response: every transaction of
// the batch committed on both sides, and the two sides left identical
// database state.
func checkOLTP(op oltpOp, r api.Result) error {
	want := op.Clients * op.Txns
	if r.Baseline.Txns != want || r.Main.Txns != want {
		return wrongf("txns: monolithic %d, cohort %d, want %d", r.Baseline.Txns, r.Main.Txns, want)
	}
	if r.Baseline.Digest != r.Main.Digest {
		return wrongf("digest: monolithic %s, cohort %s", r.Baseline.Digest, r.Main.Digest)
	}
	if r.Main.Instructions == 0 {
		return fmt.Errorf("empty measurement: %d cycles, 0 instructions", r.Main.Cycles)
	}
	return nil
}

// serveOp sends one request and checks the answer. Traced, it then
// decomposes the same request layer by layer: the direct Runner.Run
// call, the wire encoding, one execution of each reported side, and the
// workload's extra probe.
func serveOp(env *serveEnv, p *probe, id uint64, name, mode, path string, body interface {
	ToCore() (core.Request, error)
}, check func(api.Result) error, extra func(*Open, core.Request) error) sample {
	root := p.span(nil, id, "op."+mode).Set("op", name)
	defer root.End()
	s := sample{Op: name}
	hsp := p.span(root, 0, "server.request")
	t := time.Now()
	res, err := env.post(path, body)
	s.Lat = time.Since(t)
	hsp.End()
	if err == nil {
		err = check(res)
	}
	if err != nil {
		s.Err = err
		return s
	}
	s.Mcycles = float64(res.Main.Cycles) / 1e6
	if p == nil {
		return s
	}
	creq, err := body.ToCore()
	if err != nil {
		s.Err = err
		return s
	}
	runner := env.srv.Runner()
	csp := p.span(root, 0, "core.run."+mode)
	t = time.Now()
	cres, err := runner.Run(context.Background(), creq)
	direct := time.Since(t)
	csp.End()
	if err != nil {
		s.Err = fmt.Errorf("direct run: %w", err)
		return s
	}
	p.acc.add("server.overhead_s", (s.Lat - direct).Seconds())
	p.acc.add("server.ops", 1)
	p.acc.add("core.run_s", direct.Seconds())
	p.addSim(cres.Main.Result)

	esp := p.span(root, 0, "server.encode")
	_, err = json.Marshal(api.FromCore(cres))
	esp.End()
	if err != nil {
		s.Err = fmt.Errorf("encode: %w", err)
		return s
	}
	counts(p, cres)
	if err := sides(p, root, runner, creq.WithDefaults()); err != nil {
		s.Err = err
		return s
	}
	if err := extra(root, creq); err != nil {
		s.Err = err
	}
	return s
}

// counts adds the boundary counters of one direct result.
func counts(p *probe, r core.Result) {
	switch r.Mode {
	case core.ModeSharedDSS:
		p.acc.add("share.ops", 1)
		p.acc.add("share.attaches", float64(r.Main.Scans.Attaches))
		p.acc.add("share.rotations", float64(r.Main.Scans.Rotations))
		p.acc.add("share.hits", float64(r.Main.Reuse.Hits))
		p.acc.add("share.lookups", float64(r.Main.Reuse.Hits+r.Main.Reuse.Misses))
	case core.ModeStagedOLTP:
		p.acc.add("oltp.txns", float64(r.Main.Txns))
		p.acc.add("oltp.parks", float64(r.Main.Sched.Parks))
		p.acc.add("oltp.wounds", float64(r.Main.Sched.Wounds))
		p.acc.add("oltp.fenced", float64(r.Main.Fenced))
	}
}

// sides executes each side the result reports once, through the same
// public core functions Runner.Run calls, so the ledger can set one
// execution of the reported sides against the whole Run.
func sides(p *probe, root *Open, r *core.Runner, q core.Request) error {
	cell := *q.Cell
	side := func(label string, f func() error) error {
		sp := p.span(root, 0, "core.side."+label)
		d, err := timed(f)
		sp.End()
		p.acc.add("core.sides_s", d.Seconds())
		if err != nil {
			return fmt.Errorf("side %s: %w", label, err)
		}
		return nil
	}
	var err error
	switch q.Mode {
	case core.ModeVecDSS:
		for _, vec := range []bool{false, true} {
			label := map[bool]string{false: "row", true: "vectorized"}[vec]
			if err = side(label, func() error {
				_, err := r.RunVecDSS(cell, q.Query, vec, q.Seed)
				return err
			}); err != nil {
				return err
			}
		}
	case core.ModeSharedDSS:
		for _, shared := range []bool{false, true} {
			label := map[bool]string{false: "unshared", true: "shared"}[shared]
			if err = side(label, func() error {
				_, err := r.RunSharedDSSTraced(cell, q.Query, q.Clients, shared, q.Seed, false)
				return err
			}); err != nil {
				return err
			}
		}
	case core.ModeParallelDSS:
		for _, n := range q.WorkerCounts {
			cell.Cores = max(cell.Cores, n)
		}
		for _, n := range q.WorkerCounts {
			if err = side(fmt.Sprintf("parallel-%d", n), func() error {
				_, err := r.RunParallelDSS(cell, q.Query, n, q.Seed)
				return err
			}); err != nil {
				return err
			}
		}
	case core.ModeStagedOLTP:
		opts := core.StagedOLTPOpts{
			Clients: q.Clients, PerClient: q.Txns, Cohort: q.Cohort,
			Seed: q.Seed, RemotePct: q.RemotePct,
		}
		mono, coh := opts, opts
		mono.Parts, coh.Parts = 1, q.Parts
		if err = side("monolithic", func() error {
			_, err := r.RunStagedOLTP(cell, false, mono.WithDefaults())
			return err
		}); err != nil {
			return err
		}
		return side("cohort", func() error {
			_, err := r.RunStagedOLTP(cell, true, coh.WithDefaults())
			return err
		})
	}
	return nil
}

// serveLayers fills the server and core metrics of a serve-* run.
func serveLayers(acc *counters, rows []LedgerRow, m map[string]float64) {
	for _, mode := range []string{"vec-dss", "shared-dss", "parallel-dss", "staged-oltp"} {
		m["core.run_s."+mode] = selfMean(rows, "core.run."+mode)
	}
	m["core.useful_sim_fraction"] = ratio(acc.get("core.sides_s"), acc.get("core.run_s"))
	m["server.overhead_s"] = ratio(acc.get("server.overhead_s"), acc.get("server.ops"))
	m["server.encode_s"] = selfMean(rows, "server.encode")
	m["share.attaches_per_op"] = ratio(acc.get("share.attaches"), acc.get("share.ops"))
	m["share.rotations_per_op"] = ratio(acc.get("share.rotations"), acc.get("share.ops"))
	m["share.result_cache_hit_rate"] = ratio(acc.get("share.hits"), acc.get("share.lookups"))
	simLayers(acc, m)
}

// traceFor returns the run's tracer, or nil for an untraced run.
func traceFor(cfg config) *Tracer {
	if !cfg.Trace {
		return nil
	}
	return newTracer()
}

package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/trace"
)

// TPCHConfig scales the DSS database. Row counts follow TPC-H's ratios
// (lineitem : orders : customer = 4 : 1 : 0.1) at a reduced scale factor;
// the paper argues (citing DBmbench) that microarchitectural behaviour is
// insensitive to dataset scale.
type TPCHConfig struct {
	Lineitems  int // default 400000 (~38 MB table)
	Layout     storage.Layout
	ArenaBytes int // default 256 MB
	Seed       int64
}

func (c TPCHConfig) withDefaults() TPCHConfig {
	if c.Lineitems == 0 {
		c.Lineitems = 400000
	}
	if c.ArenaBytes == 0 {
		c.ArenaBytes = 256 << 20
	}
	if c.Seed == 0 {
		c.Seed = 2
	}
	return c
}

// Dates are encoded as days since 1992-01-01; shipdate spans ~7 years.
const dateRange = 2556

// TPCH is a loaded DSS database plus the four query analogs.
type TPCH struct {
	Cfg TPCHConfig
	DB  *engine.DB

	lineitem, orders, customer          *engine.Table
	part, partsupp, supplier            *engine.Table
	nOrders, nCustomers, nParts, nSupps int
}

// BuildTPCH creates and loads the database.
func BuildTPCH(cfg TPCHConfig) (*TPCH, error) {
	cfg = cfg.withDefaults()
	db := engine.NewDB(engine.Config{ArenaBytes: cfg.ArenaBytes})
	h := &TPCH{Cfg: cfg, DB: db}
	h.nOrders = cfg.Lineitems / 4
	h.nCustomers = cfg.Lineitems / 40
	h.nParts = cfg.Lineitems / 20
	h.nSupps = cfg.Lineitems/400 + 10

	var err error
	mk := func(name string, s engine.Schema) *engine.Table {
		if err != nil {
			return nil
		}
		var t *engine.Table
		t, err = db.CreateTable(name, s, cfg.Layout)
		return t
	}
	h.lineitem = mk("lineitem", engine.Schema{
		engine.Int("l_orderkey"), engine.Int("l_partkey"), engine.Int("l_suppkey"),
		engine.Float("l_quantity"), engine.Float("l_extendedprice"),
		engine.Float("l_discount"), engine.Float("l_tax"),
		engine.Char("l_returnflag", 4), engine.Char("l_linestatus", 4),
		engine.Int("l_shipdate"),
	})
	h.orders = mk("orders", engine.Schema{
		engine.Int("o_orderkey"), engine.Int("o_custkey"), engine.Float("o_totalprice"),
		engine.Int("o_orderdate"), engine.Int("o_special"),
	})
	h.customer = mk("customer", engine.Schema{
		engine.Int("c_custkey"), engine.Char("c_mktsegment", 12), engine.Char("c_name", 20),
	})
	h.part = mk("part", engine.Schema{
		engine.Int("p_partkey"), engine.Char("p_brand", 12),
		engine.Char("p_type", 16), engine.Int("p_size"),
	})
	h.partsupp = mk("partsupp", engine.Schema{
		engine.Int("ps_partkey"), engine.Int("ps_suppkey"),
		engine.Float("ps_supplycost"), engine.Int("ps_availqty"),
	})
	h.supplier = mk("supplier", engine.Schema{
		engine.Int("s_suppkey"), engine.Char("s_name", 20),
	})
	if err != nil {
		return nil, err
	}
	if err := h.load(); err != nil {
		return nil, err
	}
	return h, nil
}

func (h *TPCH) load() error {
	rng := rand.New(rand.NewSource(h.Cfg.Seed))
	flags := []string{"A", "N", "R"}
	status := []string{"O", "F"}
	for c := 0; c < h.nCustomers; c++ {
		if _, err := h.customer.Insert(nil, []engine.Value{
			engine.IV(int64(c)), engine.SV([]string{"BUILDING", "AUTOMOBILE", "MACHINERY"}[c%3]),
			engine.SV(fmt.Sprintf("cust-%d", c)),
		}); err != nil {
			return err
		}
	}
	for s := 0; s < h.nSupps; s++ {
		if _, err := h.supplier.Insert(nil, []engine.Value{
			engine.IV(int64(s)), engine.SV(fmt.Sprintf("supp-%d", s)),
		}); err != nil {
			return err
		}
	}
	for p := 0; p < h.nParts; p++ {
		if _, err := h.part.Insert(nil, []engine.Value{
			engine.IV(int64(p)),
			engine.SV(fmt.Sprintf("Brand#%d%d", 1+p%5, 1+p/5%5)),
			engine.SV(fmt.Sprintf("TYPE %d", p%25)),
			engine.IV(int64(1 + p%50)),
		}); err != nil {
			return err
		}
		// Four suppliers per part, as in TPC-H.
		for k := 0; k < 4; k++ {
			if _, err := h.partsupp.Insert(nil, []engine.Value{
				engine.IV(int64(p)), engine.IV(int64((p*4 + k) % h.nSupps)),
				engine.FV(10 + 90*rng.Float64()), engine.IV(int64(rng.Intn(10000))),
			}); err != nil {
				return err
			}
		}
	}
	for o := 0; o < h.nOrders; o++ {
		special := int64(0)
		if rng.Intn(50) == 0 {
			special = 1 // ~2% "special requests" comments (Q13's NOT LIKE)
		}
		if _, err := h.orders.Insert(nil, []engine.Value{
			engine.IV(int64(o)), engine.IV(int64(rng.Intn(h.nCustomers))),
			engine.FV(1000 * rng.Float64()), engine.IV(int64(rng.Intn(dateRange))),
			engine.IV(special),
		}); err != nil {
			return err
		}
	}
	for l := 0; l < h.Cfg.Lineitems; l++ {
		vals := []engine.Value{
			engine.IV(int64(l / 4)), // orderkey: ~4 lines per order
			engine.IV(int64(rng.Intn(h.nParts))),
			engine.IV(int64(rng.Intn(h.nSupps))),
			engine.FV(float64(1 + rng.Intn(50))),
			engine.FV(100 + 900*rng.Float64()),
			engine.FV(float64(rng.Intn(11)) / 100),
			engine.FV(float64(rng.Intn(9)) / 100),
			engine.SV(flags[rng.Intn(3)]),
			engine.SV(status[rng.Intn(2)]),
			engine.IV(int64(rng.Intn(dateRange))),
		}
		if _, err := h.lineitem.Insert(nil, vals); err != nil {
			return err
		}
	}
	return nil
}

// Lineitem exposes the fact table for experiments that build custom plans
// (the staged-execution study).
func (h *TPCH) Lineitem() *engine.Table { return h.lineitem }

// QueryParams randomizes query predicates, as the paper's DSS clients do.
type QueryParams struct {
	Date     int64   // Q1 cutoff / Q6 start
	Discount float64 // Q6 center
	Quantity float64 // Q6 bound
	Brand    int     // Q16 excluded brand
	// Phase rotates scan origins (circular shared scans), in [0, 1);
	// concurrent clients use staggered phases.
	Phase float64
	// StartPage, when positive, pins the scan origin to heap page
	// StartPage-1 (1-based so the zero value means "unset" and page 0
	// remains representable), overriding Phase. Shared-scan equivalence
	// tests use it to replay a rotation's row order serially.
	StartPage int
}

// RandomParams draws predicate parameters.
func RandomParams(rng *rand.Rand) QueryParams {
	return QueryParams{
		Date:     int64(dateRange*3/4 + rng.Intn(dateRange/8)),
		Discount: 0.02 + float64(rng.Intn(8))/100,
		Quantity: float64(24 + rng.Intn(2)),
		Brand:    1 + rng.Intn(5),
	}
}

// q1Pieces returns the plan fragments Q1 and Q1Parallel share: the scan
// predicates, the Map output schema and row transform, and the aggregate
// specs. The transform is stateless (it writes only its out argument), so
// one value is safe across workers, each inside its own Map instance.
func (h *TPCH) q1Pieces(p QueryParams) (preds []engine.Pred, mapped engine.Schema, fn func(in, out []byte), aggs []engine.AggSpec) {
	ls := h.lineitem.Schema
	mapped = engine.Schema{
		engine.Char("l_returnflag", 4), engine.Char("l_linestatus", 4),
		engine.Float("qty"), engine.Float("price"), engine.Float("disc_price"),
		engine.Float("discount"),
	}
	qtyOff := ls.Offsets()[ls.Col("l_quantity")]
	priceOff := ls.Offsets()[ls.Col("l_extendedprice")]
	discOff := ls.Offsets()[ls.Col("l_discount")]
	rfOff := ls.Offsets()[ls.Col("l_returnflag")]
	lsOff := ls.Offsets()[ls.Col("l_linestatus")]
	preds = []engine.Pred{engine.PredInt(ls.Col("l_shipdate"), engine.LE, p.Date)}
	fn = func(in, out []byte) {
		copy(out[0:4], in[rfOff:rfOff+4])
		copy(out[4:8], in[lsOff:lsOff+4])
		qty := engine.RowFloat(in, qtyOff)
		price := engine.RowFloat(in, priceOff)
		disc := engine.RowFloat(in, discOff)
		engine.PutRowFloat(out, 8, qty)
		engine.PutRowFloat(out, 16, price)
		engine.PutRowFloat(out, 24, price*(1-disc))
		engine.PutRowFloat(out, 32, disc)
	}
	aggs = []engine.AggSpec{
		{Func: engine.Sum, Col: 2, Name: "sum_qty"},
		{Func: engine.Sum, Col: 3, Name: "sum_base_price"},
		{Func: engine.Sum, Col: 4, Name: "sum_disc_price"},
		{Func: engine.Avg, Col: 2, Name: "avg_qty"},
		{Func: engine.Avg, Col: 3, Name: "avg_price"},
		{Func: engine.Avg, Col: 5, Name: "avg_disc"},
		{Func: engine.Count, Name: "count_order"},
	}
	return preds, mapped, fn, aggs
}

// Q1 is the scan-dominated pricing-summary analog: scan lineitem below a
// ship date, group by (returnflag, linestatus), and compute the standard
// sums and averages. It runs on the vectorized executor; Q1Row is the
// row-at-a-time reference plan with identical semantics (results are
// byte-identical — same scan order, same accumulator machinery).
func (h *TPCH) Q1(ctx *engine.Ctx, p QueryParams) ([][]engine.Value, error) {
	preds, mapped, fn, aggs := h.q1Pieces(p)
	plan := &engine.HashAggVec{
		Child: &engine.MapVec{
			Child: &engine.ScanVec{
				Table:     h.lineitem,
				Preds:     preds,
				StartPage: h.scanOrigin(h.lineitem, p),
			},
			Out:  mapped,
			Fn:   fn,
			Cost: 18,
		},
		GroupCols: []int{0, 1},
		Aggs:      aggs,
		Expected:  8,
	}
	return engine.Collect(ctx, &engine.Sort{Child: &engine.RowAdapter{Vec: plan}, Col: 0})
}

// Q1Row is Q1 on the row-at-a-time seed operators (the reference path
// golden tests and the vectorized-speedup comparison run against).
func (h *TPCH) Q1Row(ctx *engine.Ctx, p QueryParams) ([][]engine.Value, error) {
	preds, mapped, fn, aggs := h.q1Pieces(p)
	plan := &engine.HashAgg{
		Child: &engine.Map{
			Child: &engine.SeqScan{
				Table:     h.lineitem,
				Preds:     preds,
				StartPage: h.scanOrigin(h.lineitem, p),
			},
			Out:  mapped,
			Fn:   fn,
			Cost: 18,
		},
		GroupCols: []int{0, 1},
		Aggs:      aggs,
		Expected:  8,
	}
	return engine.Collect(ctx, &engine.Sort{Child: plan, Col: 0})
}

// q6Pieces returns the plan fragments Q6 and Q6Parallel share.
func (h *TPCH) q6Pieces(p QueryParams) (preds []engine.Pred, mapped engine.Schema, fn func(in, out []byte), aggs []engine.AggSpec) {
	ls := h.lineitem.Schema
	priceOff := ls.Offsets()[ls.Col("l_extendedprice")]
	discOff := ls.Offsets()[ls.Col("l_discount")]
	preds = []engine.Pred{
		engine.PredIntBetween(ls.Col("l_shipdate"), p.Date-365, p.Date),
		engine.PredFloatBetween(ls.Col("l_discount"), p.Discount-0.01, p.Discount+0.01),
		engine.PredFloat(ls.Col("l_quantity"), engine.LT, p.Quantity),
	}
	mapped = engine.Schema{engine.Int("one"), engine.Float("revenue")}
	fn = func(in, out []byte) {
		engine.PutRowInt(out, 0, 1)
		engine.PutRowFloat(out, 8, engine.RowFloat(in, priceOff)*engine.RowFloat(in, discOff))
	}
	aggs = []engine.AggSpec{{Func: engine.Sum, Col: 1, Name: "revenue"}}
	return preds, mapped, fn, aggs
}

// Q6 is the selective-scan forecasting-revenue analog: a tight filter on
// date, discount, and quantity, summing extendedprice*discount. It runs
// on the vectorized executor; Q6Row is the row-at-a-time reference.
func (h *TPCH) Q6(ctx *engine.Ctx, p QueryParams) ([][]engine.Value, error) {
	preds, mapped, fn, aggs := h.q6Pieces(p)
	plan := &engine.HashAggVec{
		Child: &engine.MapVec{
			Child: &engine.ScanVec{
				Table:     h.lineitem,
				Preds:     preds,
				StartPage: h.scanOrigin(h.lineitem, p),
			},
			Out:  mapped,
			Fn:   fn,
			Cost: 12,
		},
		GroupCols: []int{0},
		Aggs:      aggs,
		Expected:  2,
	}
	return engine.CollectVec(ctx, plan)
}

// Q6Row is Q6 on the row-at-a-time seed operators.
func (h *TPCH) Q6Row(ctx *engine.Ctx, p QueryParams) ([][]engine.Value, error) {
	preds, mapped, fn, aggs := h.q6Pieces(p)
	plan := &engine.HashAgg{
		Child: &engine.Map{
			Child: &engine.SeqScan{
				Table:     h.lineitem,
				Preds:     preds,
				StartPage: h.scanOrigin(h.lineitem, p),
			},
			Out:  mapped,
			Fn:   fn,
			Cost: 12,
		},
		GroupCols: []int{0},
		Aggs:      aggs,
		Expected:  2,
	}
	return engine.Collect(ctx, plan)
}

// Q13 is the outer-join customer-distribution analog: customers left
// outer join their non-special orders, count orders per customer, then
// count customers per order-count. It runs on the vectorized executor;
// Q13Row is the row-at-a-time reference.
func (h *TPCH) Q13(ctx *engine.Ctx, p QueryParams) ([][]engine.Value, error) {
	os := h.orders.Schema
	join := &engine.HashJoinVec{
		Probe: &engine.ScanVec{Table: h.customer, Cols: []int{0}},
		Build: &engine.ScanVec{
			Table:     h.orders,
			Preds:     []engine.Pred{engine.PredInt(os.Col("o_special"), engine.EQ, 0)},
			StartPage: h.scanOrigin(h.orders, p),
		},
		ProbeCol: 0, BuildCol: os.Col("o_custkey"),
		Type:     engine.LeftOuter,
		Expected: h.nOrders,
	}
	// The post-join pipeline (match tagging and the two aggregations) is
	// shared with Q13Shared — see q13TailVec in share.go. A matched join
	// row carries a real order; unmatched (outer) rows are zero-filled,
	// and o_totalprice > 0 distinguishes them.
	return engine.Collect(ctx, h.q13TailVec(join))
}

// Q13Row is Q13 on the row-at-a-time seed operators.
func (h *TPCH) Q13Row(ctx *engine.Ctx, p QueryParams) ([][]engine.Value, error) {
	os := h.orders.Schema
	join := &engine.HashJoin{
		Left: &engine.SeqScan{Table: h.customer, Cols: []int{0}},
		Right: &engine.SeqScan{
			Table:     h.orders,
			Preds:     []engine.Pred{engine.PredInt(os.Col("o_special"), engine.EQ, 0)},
			StartPage: h.scanOrigin(h.orders, p),
		},
		LeftCol: 0, RightCol: os.Col("o_custkey"),
		Type: engine.LeftOuter,
	}
	return engine.Collect(ctx, h.q13Tail(join))
}

// Q16 is the join-dominated supplier-relationship analog: partsupp joined
// with filtered parts, counting distinct suppliers per (brand, type,
// size). Distinctness comes from a first-level grouping.
func (h *TPCH) Q16(ctx *engine.Ctx, p QueryParams) ([][]engine.Value, error) {
	ps := h.part.Schema
	brand := fmt.Sprintf("Brand#%d%d", p.Brand, p.Brand)
	join := &engine.HashJoin{
		Left: &engine.SeqScan{
			Table: h.partsupp, Cols: []int{0, 1},
			StartPage: h.scanOrigin(h.partsupp, p),
		},
		Right: &engine.SeqScan{
			Table: h.part,
			Preds: []engine.Pred{
				engine.PredStr(ps.Col("p_brand"), engine.NE, brand),
				engine.PredInt(ps.Col("p_size"), engine.LE, 25),
			},
		},
		LeftCol: 0, RightCol: 0,
	}
	// Distinct (brand, type, size, suppkey) first.
	distinct := &engine.HashAgg{
		Child:     join,
		GroupCols: []int{3, 4, 5, 1}, // p_brand, p_type, p_size, ps_suppkey
		Aggs:      []engine.AggSpec{{Func: engine.Count, Name: "dummy"}},
		Expected:  h.nParts,
	}
	counts := &engine.HashAgg{
		Child:     distinct,
		GroupCols: []int{0, 1, 2},
		Aggs:      []engine.AggSpec{{Func: engine.Count, Name: "supplier_cnt"}},
		Expected:  1024,
	}
	return engine.Collect(ctx, &engine.Sort{Child: counts, Col: 3, Desc: true})
}

// phasePage converts a phase fraction into a starting page for t.
func (h *TPCH) phasePage(t *engine.Table, phase float64) int {
	n := t.Heap.NumPages()
	if n == 0 || phase <= 0 {
		return 0
	}
	return int(phase * float64(n))
}

// scanOrigin resolves a query's scan origin on t: an explicit StartPage
// (1-based) wins, otherwise the phase fraction.
func (h *TPCH) scanOrigin(t *engine.Table, p QueryParams) int {
	if p.StartPage > 0 {
		return p.StartPage - 1
	}
	return h.phasePage(t, p.Phase)
}

// RunQuery executes query q (1, 6, 13, 16) on the vectorized executor
// and returns its result rows (Q16 has no vectorized plan and runs on
// the row operators).
func (h *TPCH) RunQuery(ctx *engine.Ctx, q int, p QueryParams) ([][]engine.Value, error) {
	switch q {
	case 1:
		return h.Q1(ctx, p)
	case 6:
		return h.Q6(ctx, p)
	case 13:
		return h.Q13(ctx, p)
	case 16:
		return h.Q16(ctx, p)
	}
	return nil, fmt.Errorf("workload: no query %d (have 1, 6, 13, 16)", q)
}

// RunQueryRow executes query q on the row-at-a-time reference operators —
// the seed's Volcano plans, kept for golden equivalence tests and the
// vectorized-vs-row speedup measurements.
func (h *TPCH) RunQueryRow(ctx *engine.Ctx, q int, p QueryParams) ([][]engine.Value, error) {
	switch q {
	case 1:
		return h.Q1Row(ctx, p)
	case 6:
		return h.Q6Row(ctx, p)
	case 13:
		return h.Q13Row(ctx, p)
	case 16:
		return h.Q16(ctx, p)
	}
	return nil, fmt.Errorf("workload: no query %d (have 1, 6, 13, 16)", q)
}

// Queries lists the implemented TPC-H analogs in the paper's order.
var Queries = []int{1, 6, 13, 16}

// Client runs queries from the paper's mix until the recorder stops (or
// limit queries complete; 0 = unlimited), closing the recorder on exit.
// The workspace is reset between queries.
//
// All clients draw the query ORDER from a shared sequence while predicate
// parameters stay private per client. Concurrent scans of the same tables
// therefore run phase-aligned, modelling the convoyed steady state of
// long-running multi-client DSS systems (trailing scans travel in the
// leader's L2 wake); from a random initial phase the convoy forms over
// tens of millions of cycles, far beyond a sampled measurement window.
func (h *TPCH) Client(rec *trace.Recorder, worker int, seed int64, limit int) (int, error) {
	return h.client(rec, worker, seed, limit, h.RunQuery)
}

// ClientRow is Client on the row-at-a-time reference operators (used by
// validation cells whose analytic models assume per-tuple blocking
// access patterns, and by vectorized-vs-row comparisons).
func (h *TPCH) ClientRow(rec *trace.Recorder, worker int, seed int64, limit int) (int, error) {
	return h.client(rec, worker, seed, limit, h.RunQueryRow)
}

func (h *TPCH) client(rec *trace.Recorder, worker int, seed int64, limit int, run func(*engine.Ctx, int, QueryParams) ([][]engine.Value, error)) (int, error) {
	defer rec.Close()
	ctx := h.DB.NewCtx(rec, worker, 96<<20)
	defer ctx.Work.Release()
	qrng := rand.New(rand.NewSource(4242)) // shared query order
	prng := rand.New(rand.NewSource(seed)) // private predicate parameters
	ran := 0
	for !rec.Stopped() {
		q := Queries[qrng.Intn(len(Queries))]
		ctx.Work.Reset()
		p := RandomParams(prng)
		// Staggered circular-scan phases ~0.5 MB apart on lineitem: small
		// caches cannot hold a leader's wake long enough for trailers to
		// reuse it; large caches can, which is the paper's DSS sharing
		// effect (Figures 6 and 8).
		p.Phase = float64(worker%16) / 80
		if _, err := run(ctx, q, p); err != nil {
			return ran, err
		}
		ran++
		if limit > 0 && ran >= limit {
			break
		}
	}
	return ran, nil
}

// RunOnce executes a single query for unsaturated (response-time)
// experiments, closing the recorder when the query completes. rowPlans
// selects the row-at-a-time reference operators instead of the
// vectorized default.
func (h *TPCH) RunOnce(rec *trace.Recorder, worker int, q int, seed int64, rowPlans bool) error {
	defer rec.Close()
	ctx := h.DB.NewCtx(rec, worker, 96<<20)
	defer ctx.Work.Release()
	rng := rand.New(rand.NewSource(seed))
	if rowPlans {
		_, err := h.RunQueryRow(ctx, q, RandomParams(rng))
		return err
	}
	_, err := h.RunQuery(ctx, q, RandomParams(rng))
	return err
}

package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// figure4Cells lists the cells core.Runner.Figure4 runs, in its order:
// unsaturated OLTP on both camps, unsaturated DSS Q1/Q6/Q13/Q16 on both
// camps, then saturated OLTP and DSS on both camps. All take
// DefaultCell parameters.
func figure4Cells() []core.Cell {
	var cells []core.Cell
	for _, camp := range []sim.Camp{sim.FatCamp, sim.LeanCamp} {
		cells = append(cells, core.DefaultCell(camp, core.OLTP, false))
	}
	for _, q := range []int{1, 6, 13, 16} {
		for _, camp := range []sim.Camp{sim.FatCamp, sim.LeanCamp} {
			c := core.DefaultCell(camp, core.DSS, false)
			c.UnsatQuery = q
			cells = append(cells, c)
		}
	}
	for _, wk := range []core.WorkloadKind{core.OLTP, core.DSS} {
		for _, camp := range []sim.Camp{sim.FatCamp, sim.LeanCamp} {
			cells = append(cells, core.DefaultCell(camp, wk, true))
		}
	}
	return cells
}

// cellKey names a cell's ledger class: camp, workload, saturation.
func cellKey(c core.Cell) string {
	sat := "unsat"
	if c.Saturated {
		sat = "sat"
	}
	return fmt.Sprintf("%s.%s.%s", strings.ToLower(c.Camp.String()), strings.ToLower(c.Workload.String()), sat)
}

// cellName identifies one of the 14 cells.
func cellName(c core.Cell) string {
	if c.Workload == core.DSS && !c.Saturated {
		return fmt.Sprintf("%s.q%d", cellKey(c), c.UnsatQuery)
	}
	return cellKey(c)
}

// cellsEnv is one Runner kept for the whole run, as cmd/figures keeps
// one, plus a private TPC-C for the transaction-producer probe.
type cellsEnv struct {
	r     *core.Runner
	probe *workload.TPCC
}

func buildCells(p *probe) (*cellsEnv, error) {
	r := core.NewRunner(core.TestScale())
	sp := p.span(nil, 0, "workload.build_tpch")
	_, err := r.TPCH()
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = p.span(nil, 0, "workload.build_tpcc")
	_, err = r.TPCC()
	sp.End()
	if err != nil {
		return nil, err
	}
	w, err := workload.BuildTPCC(r.ScaleCfg.TPCC)
	if err != nil {
		return nil, err
	}
	return &cellsEnv{r: r, probe: w}, nil
}

// tpccProbeTxns is how many blocking TPC-C transactions one producer
// probe runs into a drained pipe.
const tpccProbeTxns = 64

// tpccClientProbe times the blocking TPCC.Client producer alone: its
// transactions go into a pipe the benchmark drains, with no simulation.
func tpccClientProbe(p *probe, parent *Open, w *workload.TPCC, seed int64) error {
	rec, s := trace.Pipe()
	var counts workload.MixCounts
	var err error
	var wg sync.WaitGroup
	wg.Add(1)
	sp := p.span(parent, 0, "workload.tpcc_client")
	t := time.Now()
	go func() {
		defer wg.Done()
		counts, err = w.Client(rec, 0, seed, tpccProbeTxns)
	}()
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	wg.Wait()
	d := time.Since(t)
	sp.End()
	if err != nil {
		return fmt.Errorf("tpcc producer probe: %w", err)
	}
	p.acc.add("tpcc.txns", float64(counts.Total()))
	p.acc.add("tpcc.secs", d.Seconds())
	return nil
}

func runFigureCells(cfg config) (*report, error) {
	tr := traceFor(cfg)
	env, setups, err := repeatSetup(func() (*cellsEnv, error) { return buildCells(&probe{tr: tr}) }, func(*cellsEnv) {})
	if err != nil {
		return nil, err
	}
	cells := figure4Cells()
	var mu sync.Mutex
	observed := make(map[string][]float64)
	d := driver{
		// 2 cells in 14 fail (the Q6 cells), so 9 blocks leave 108
		// successes, 11 of them beyond the p90.
		Clients: 1, Block: len(cells), Rate: 1, MinOps: 9 * len(cells),
		Op: func(i int, p *probe) sample {
			cell := blockOp(cells, cfg.Seed, i)
			s := sample{Op: cellName(cell)}
			root := p.span(nil, opID(i), "op.cell").Set("cell", s.Op)
			defer root.End()
			sp := p.span(root, 0, "core.cell."+cellKey(cell))
			t := time.Now()
			res, err := env.r.RunCell(cell)
			s.Lat = time.Since(t)
			sp.End()
			switch {
			case err != nil:
				s.Err = err
			case res.Result.Instructions == 0:
				s.Err = fmt.Errorf("no measured instructions (%d cycles): warming consumed the whole trace", res.Result.Cycles)
			}
			mu.Lock()
			observed["cycles."+s.Op] = append(observed["cycles."+s.Op], float64(res.Result.Cycles))
			observed["work."+s.Op] = append(observed["work."+s.Op], float64(res.Work))
			mu.Unlock()
			if s.Err != nil {
				return s
			}
			s.Mcycles = float64(res.Result.Cycles) / 1e6
			if p != nil {
				p.addSim(res.Result)
				camp := strings.ToLower(cell.Camp.String())
				p.acc.add("cell."+camp+".cycles", float64(res.Result.Cycles))
				p.acc.add("cell."+camp+".secs", s.Lat.Seconds())
				if cell.Workload == core.OLTP {
					s.Err = tpccClientProbe(p, root, env.probe, int64(i)+cfg.Seed)
				}
			}
			return s
		},
		Layers: func(acc *counters, rows []LedgerRow, m map[string]float64) {
			for _, c := range cells {
				m["core.cell_s."+cellKey(c)] = selfMean(rows, "core.cell."+cellKey(c))
			}
			// Cell host time covers trace generation too: no replay is
			// possible for many-client cells, so this is the camp's
			// simulated Mcycles per host second of whole cells.
			for _, camp := range []string{"fc", "lc"} {
				m["sim."+camp+".mcycles_per_s"] = ratio(acc.get("cell."+camp+".cycles")/1e6, acc.get("cell."+camp+".secs"))
			}
			m["workload.tpcc_txn_s"] = ratio(acc.get("tpcc.secs"), acc.get("tpcc.txns"))
			simLayers(acc, m)
		},
	}
	rep := measure(cfg, d, setups, tr)
	rep.Observed = observed
	return rep, nil
}

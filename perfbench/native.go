package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/workload"
)

// nativeEnv is the test-scale TPC-H database with one nil-recorder
// context per native worker.
type nativeEnv struct {
	h    *workload.TPCH
	ctxs []*engine.Ctx
}

// nativeWorkBytes sizes each native worker's workspace, as the native
// sweep of core does.
const nativeWorkBytes = 64 << 20

func buildNative(p *probe) (*nativeEnv, error) {
	sp := p.span(nil, 0, "workload.build_tpch")
	h, err := workload.BuildTPCH(core.TestScale().TPCH)
	sp.End()
	if err != nil {
		return nil, err
	}
	e := &nativeEnv{h: h}
	for w := 0; w < 2; w++ {
		e.ctxs = append(e.ctxs, h.DB.NewCtx(nil, 90+w, nativeWorkBytes))
	}
	return e, nil
}

// nativeOracle is the row engine's answer for one (query, params).
type nativeOracle struct {
	digest uint64
	rows   [][]engine.Value
}

func runNativeDSS(cfg config) (*report, error) {
	tr := traceFor(cfg)
	env, setups, err := repeatSetup(func() (*nativeEnv, error) { return buildNative(&probe{tr: tr}) }, func(*nativeEnv) {})
	if err != nil {
		return nil, err
	}
	h := env.h
	params := make([]workload.QueryParams, nativeParamSets)
	oracle := make(map[[2]int]nativeOracle)
	octx := h.DB.NewCtx(nil, 110, 64<<20)
	for k := range params {
		params[k] = workload.RandomParams(rand.New(rand.NewSource(nativeParamSeed(cfg.Seed, k))))
		for _, q := range []int{1, 6, 13} {
			octx.Work.Reset()
			rows, err := h.RunQueryRow(octx, q, params[k])
			if err != nil {
				return nil, fmt.Errorf("row oracle q%d: %w", q, err)
			}
			oracle[[2]int{q, k}] = nativeOracle{digest: core.RowsDigest(rows), rows: rows}
		}
	}
	d := driver{
		Clients: 1, Block: len(nativeMix), Rate: 250, MinOps: minSamplesForTail(tailP),
		Op: func(i int, p *probe) sample {
			op, k := blockOp(nativeMix, cfg.Seed, i), nativeParams(i)
			s := sample{Op: op.String()}
			for _, ctx := range env.ctxs {
				ctx.Work.Reset()
			}
			sp := p.span(nil, opID(i), "engine.native."+op.String())
			t := time.Now()
			var rows [][]engine.Value
			if op.Workers == 1 {
				rows, s.Err = h.RunQueryNative(env.ctxs[0], op.Query, params[k], workload.NativeOpts{})
			} else {
				rows, s.Err = h.RunQueryParallelNative(env.ctxs[:op.Workers], op.Query, params[k], workload.NativeOpts{})
			}
			s.Lat = time.Since(t)
			sp.End()
			if s.Err != nil {
				return s
			}
			want := oracle[[2]int{op.Query, k}]
			if op.Workers == 1 {
				if got := core.RowsDigest(rows); got != want.digest {
					s.Err = wrongf("serial digest %#x, row oracle %#x", got, want.digest)
				}
			} else {
				if err := sameRows(rows, want.rows, 1e-9); err != nil {
					s.Err = wrongf("%v", err)
				}
			}
			if s.Err == nil && p != nil {
				p.acc.add("engine.bytes", float64(h.NativeBytesScanned(op.Query)))
				p.acc.add("engine.secs", s.Lat.Seconds())
			}
			return s
		},
		Layers: func(acc *counters, rows []LedgerRow, m map[string]float64) {
			var w1, w2 float64
			for _, q := range []int{1, 6, 13} {
				for _, w := range []int{1, 2} {
					name := fmt.Sprintf("q%d.w%d", q, w)
					secs := selfMean(rows, "engine.native."+name)
					m["engine.native_s."+name] = secs
					if w == 1 {
						w1 += secs
					} else {
						w2 += secs
					}
				}
			}
			m["engine.native_gb_per_s"] = ratio(acc.get("engine.bytes")/1e9, acc.get("engine.secs"))
			m["engine.scaling_2w_x"] = ratio(w1, w2)
		},
	}
	return measure(cfg, d, setups, tr), nil
}

// sameRows compares a multi-worker result with the row oracle: keys,
// counts and every non-float value exactly, floats within rel relative
// error (parallel sums add in a different order).
func sameRows(got, want [][]engine.Value, rel float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, row oracle %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d: %d columns, row oracle %d", i, len(got[i]), len(want[i]))
		}
		for j, g := range got[i] {
			w := want[i][j]
			if g.Kind != w.Kind {
				return fmt.Errorf("row %d col %d: kind %v, row oracle %v", i, j, g.Kind, w.Kind)
			}
			switch g.Kind {
			case engine.TFloat:
				if math.Abs(g.F-w.F) > rel*math.Max(math.Abs(w.F), 1e-300) {
					return fmt.Errorf("row %d col %d: %v, row oracle %v", i, j, g.F, w.F)
				}
			case engine.TChar:
				if g.S != w.S {
					return fmt.Errorf("row %d col %d: %q, row oracle %q", i, j, g.S, w.S)
				}
			default:
				if g.I != w.I {
					return fmt.Errorf("row %d col %d: %d, row oracle %d", i, j, g.I, w.I)
				}
			}
		}
	}
	return nil
}

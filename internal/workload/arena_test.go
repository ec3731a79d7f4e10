package workload

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/storage"
)

// TestQueriesWriteBelowHighWater: no plan writes workspace memory it was
// not handed. After every run of Q1, Q6 and Q13 on the row, vectorized,
// native and 4-worker parallel plans, under every join mode, each
// worker arena is still zero from its high-water mark to its end. That
// is what lets mem.Arena.Release clear only [0, high-water) and still
// hand the next arena an all-zero backing.
func TestQueriesWriteBelowHighWater(t *testing.T) {
	h := vecTPCH(t, storage.NSM)
	p := QueryParams{Date: 2000, Discount: 0.05, Quantity: 30}
	run := func(plan string, ctxs []*engine.Ctx, q int, m engine.JoinMode) (err error) {
		switch plan {
		case "row":
			_, err = h.RunQueryRow(ctxs[0], q, p)
		case "vec":
			_, err = h.RunQuery(ctxs[0], q, p)
		case "native":
			_, err = h.RunQueryNative(ctxs[0], q, p, NativeOpts{JoinMode: m})
		case "parallel":
			_, err = h.RunQueryParallelNative(ctxs, q, p, NativeOpts{JoinMode: m})
		case "parallel-join": // the Q13 join core parallel-dss simulates
			if q == 13 {
				_, err = h.OrdersPerCustomerParallel(ctxs)
			}
		}
		return err
	}
	plans := []struct {
		name    string
		workers int
	}{{"row", 1}, {"vec", 1}, {"native", 1}, {"parallel", 4}, {"parallel-join", 4}}
	zero := make([]byte, 64<<10)
	for _, q := range []int{1, 6, 13} {
		for _, pl := range plans {
			for _, m := range append([]engine.JoinMode{engine.JoinAuto}, joinModes...) {
				name := fmt.Sprintf("q%d/%s/%s", q, pl.name, m)
				ctxs := make([]*engine.Ctx, pl.workers)
				for w := range ctxs {
					ctxs[w] = h.DB.NewCtx(nil, 60+w, 24<<20)
					ctxs[w].JoinMode = m
				}
				if err := run(pl.name, ctxs, q, m); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for w, c := range ctxs {
					hi := c.Work.HighWater()
					buf, _ := c.Work.Raw()
					for off := hi; off < len(buf); off += len(zero) {
						chunk := buf[off:min(off+len(zero), len(buf))]
						if !bytes.Equal(chunk, zero[:len(chunk)]) {
							t.Fatalf("%s: worker %d wrote past its high-water mark %d (nonzero byte in [%d, %d))",
								name, w, hi, off, off+len(chunk))
						}
					}
					c.Work.Release()
				}
			}
		}
	}
}

package sim

import (
	"repro/internal/cache"
	"repro/internal/trace"
)

// fcCore models one fat-camp core: a wide out-of-order design running a
// single hardware context. Independent misses overlap up to the MLP limit
// inside the reorder window, so streaming (DSS-style) access patterns hide
// much of their miss latency; dependent loads (index and hash-bucket
// chains, the OLTP pattern) serialize behind the loads that feed them and
// expose it.
//
// Database code's tight dependencies keep a 4-wide machine far from its
// peak issue rate, so FCIssue models the *sustainable* issue rate on
// database code (default 2) rather than the nominal pipeline width — the
// paper's "database workloads exhibit limited ILP".
type fcCore struct {
	id   int
	cfg  *Config
	chip *Chip
	ctx  *hwctx

	outstanding   []fcMiss  // in-flight data misses, append order
	prevLoadDone  uint64    // completion time of the latest missing load
	prevLoadCause StallKind // stall class of that load's service level
	instrIdx      uint64    // instructions issued, for the window bound
}

// fcMiss is an in-flight data miss.
type fcMiss struct {
	doneAt   uint64
	instrIdx uint64
	cause    StallKind
}

func (c *fcCore) contexts() []*hwctx { return []*hwctx{c.ctx} }

func (c *fcCore) quiet(now uint64) (uint64, StallKind) { return c.ctx.quiet(now) }

// retire drops completed misses.
func (c *fcCore) retire(now uint64) {
	live := c.outstanding[:0]
	for _, m := range c.outstanding {
		if m.doneAt > now {
			live = append(live, m)
		}
	}
	c.outstanding = live
}

// oldest returns the in-flight miss with the smallest instruction index.
func (c *fcCore) oldest() fcMiss {
	old := c.outstanding[0]
	for _, m := range c.outstanding[1:] {
		if m.instrIdx < old.instrIdx {
			old = m
		}
	}
	return old
}

// earliest returns the in-flight miss that completes first.
func (c *fcCore) earliest() fcMiss {
	e := c.outstanding[0]
	for _, m := range c.outstanding[1:] {
		if m.doneAt < e.doneAt {
			e = m
		}
	}
	return e
}

func (c *fcCore) step(now uint64) (int, StallKind) {
	ctx := c.ctx
	ctx.removeFinished(now, c.chip)
	if ctx.maybeSwitch(now, c.cfg.Quantum, c.cfg.SwitchCost) {
		// A new thread's dependence state does not carry over.
		c.outstanding = c.outstanding[:0]
		c.prevLoadDone = 0
	}
	if len(ctx.threads) == 0 {
		return 0, KindIdle
	}
	if now < ctx.blockedUntil {
		return 0, ctx.blockCause
	}
	c.retire(now)

	t := ctx.runningThread()
	issued := 0
issue:
	for issued < c.cfg.FCIssue {
		// Structural limits: a full miss queue or reorder window stalls
		// issue until the bounding miss retires.
		if len(c.outstanding) >= c.cfg.MLP {
			e := c.earliest()
			ctx.block(e.doneAt, e.cause)
			break issue
		}
		if len(c.outstanding) > 0 {
			if old := c.oldest(); c.instrIdx-old.instrIdx >= uint64(c.cfg.Window) {
				ctx.block(old.doneAt, old.cause)
				break issue
			}
		}
		if t.execLeft > 0 {
			k := c.cfg.FCIssue - issued
			if t.execLeft < k {
				k = t.execLeft
			}
			t.execLeft -= k
			issued += k
			c.instrIdx += uint64(k)
			if c.chargeBranch(ctx, t, k, now) {
				break issue
			}
			continue
		}
		r, ok := t.next()
		if !ok {
			break issue
		}
		switch r.Kind() {
		case trace.Exec:
			res := c.chip.hier.Fetch(c.id, r.Addr(), now)
			t.execLine = r.Addr()
			t.execLeft = r.Count()
			if res.Level != cache.LvlL1 {
				// Frontend starvation: OoO machinery does not hide
				// instruction misses.
				ctx.block(res.DoneAt, stallFor(res.Level, true))
				break issue
			}
		case trace.Load:
			if r.Dep() && c.prevLoadDone > now {
				// Pointer chase: the address depends on an in-flight
				// load. The load cannot even issue yet.
				t.pushback(r)
				ctx.block(c.prevLoadDone, c.prevLoadCause)
				break issue
			}
			res := c.chip.hier.Read(c.id, r.Addr(), now)
			issued++
			c.instrIdx++
			if res.Level != cache.LvlL1 {
				cause := stallFor(res.Level, false)
				c.outstanding = append(c.outstanding, fcMiss{res.DoneAt, c.instrIdx, cause})
				c.prevLoadDone = res.DoneAt
				c.prevLoadCause = cause
			} else {
				// L1 hits forward within the window: no dependence stall.
				c.prevLoadDone = 0
			}
		case trace.Store:
			c.chip.hier.Write(c.id, r.Addr(), now)
			issued++
			c.instrIdx++
		case trace.Mark:
			// Span markers are free: no issue slot, no instruction.
			c.chip.mark(t, r)
		case trace.Prefetch:
			// Software prefetch: starts the fill but takes no issue slot,
			// no reorder-window entry, and no miss-queue slot (prefetch
			// engines have their own request buffers); issue never stalls
			// on it.
			c.chip.hier.Prefetch(c.id, r.Addr(), now)
		}
	}
	if issued == 0 {
		if now < ctx.blockedUntil {
			return 0, ctx.blockCause
		}
		return 0, KindIdle
	}
	return issued, KindComp
}

func (c *fcCore) chargeBranch(ctx *hwctx, t *Thread, issued int, now uint64) bool {
	t.untilBranch -= issued
	if t.untilBranch > 0 {
		return false
	}
	t.untilBranch += c.cfg.BranchEvery
	ctx.block(now+uint64(c.cfg.BranchPenalty), KindOther)
	return true
}

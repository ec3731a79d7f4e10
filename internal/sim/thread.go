package sim

import (
	"repro/internal/mem"
	"repro/internal/trace"
)

// Thread is one software thread: a trace stream plus consumption state.
// The OS-like scheduler multiplexes threads onto hardware contexts.
type Thread struct {
	ID     int
	stream *trace.Stream
	chip   *Chip

	// Buffered chunks pulled from the stream. The chip's pump fills these
	// opportunistically across all threads, so one producer blocked on an
	// engine lock held by another (whose channel is full) can never wedge
	// the simulation.
	chunks [][]trace.Ref
	cur    []trace.Ref
	pos    int

	// Pushback buffer: a ref peeked but not yet issued.
	pending    trace.Ref
	hasPending bool

	// Current Exec record being drained.
	execLine mem.Addr
	execLeft int

	// Branch model: instructions until the next charged mispredict.
	untilBranch int

	done     bool
	consumed uint64
}

func newThread(id int, s *trace.Stream, ch *Chip, branchEvery int) *Thread {
	return &Thread{ID: id, stream: s, chip: ch, untilBranch: branchEvery}
}

// next returns the next trace record, honoring the pushback buffer.
func (t *Thread) next() (trace.Ref, bool) {
	if t.hasPending {
		t.hasPending = false
		return t.pending, true
	}
	for t.pos == len(t.cur) {
		if len(t.chunks) > 0 {
			t.cur = t.chunks[0]
			t.chunks = t.chunks[1:]
			t.pos = 0
			continue
		}
		if t.done {
			return 0, false
		}
		if !t.chip.pump(t) {
			t.done = true
			return 0, false
		}
	}
	r := t.cur[t.pos]
	t.pos++
	t.consumed++
	return r, true
}

// pushback returns an unissued record to the front of the stream.
func (t *Thread) pushback(r trace.Ref) {
	t.pending = r
	t.hasPending = true
}

// finished reports whether the thread's trace ended and all buffered work
// was issued.
func (t *Thread) finished() bool {
	return t.done && !t.hasPending && t.execLeft == 0
}

// hwctx is one hardware context: a run queue of software threads plus
// blocking state. FC cores have one context; LC cores have several.
type hwctx struct {
	threads []*Thread // local run queue; threads[cur] is running
	cur     int

	blockedUntil uint64
	blockCause   StallKind

	nextSwitch uint64 // cycle of the next quantum expiry
}

// runningThread returns the thread currently bound to the context.
func (c *hwctx) runningThread() *Thread {
	if len(c.threads) == 0 {
		return nil
	}
	return c.threads[c.cur]
}

// removeFinished drops completed threads from the run queue, recording
// their completion time with the chip.
func (c *hwctx) removeFinished(now uint64, ch *Chip) {
	for i := 0; i < len(c.threads); {
		t := c.threads[i]
		if t.finished() {
			ch.threadFinished(t, now)
			c.threads = append(c.threads[:i], c.threads[i+1:]...)
			if c.cur >= len(c.threads) {
				c.cur = 0
			}
			continue
		}
		i++
	}
}

// maybeSwitch rotates the run queue on quantum expiry and returns the
// context-switch penalty to charge, if any.
func (c *hwctx) maybeSwitch(now, quantum uint64, cost int) bool {
	if len(c.threads) < 2 {
		return false
	}
	if now < c.nextSwitch {
		return false
	}
	c.cur = (c.cur + 1) % len(c.threads)
	c.nextSwitch = now + quantum
	c.blockedUntil = now + uint64(cost)
	c.blockCause = KindOther
	return true
}

// block parks the context until cycle until, charging cause.
func (c *hwctx) block(until uint64, cause StallKind) {
	if until > c.blockedUntil {
		c.blockedUntil = until
		c.blockCause = cause
	}
}

// quiet returns the first cycle after now at which the context can issue
// or change state, and the stall it reports until then; an empty context
// never wakes. Called after the owning core's step(now), it wakes for a
// context runnable at now+1, for a finished thread (removeFinished stamps
// its completion on the next step), and at the next quantum expiry of a
// shared context, since maybeSwitch may shorten the current block.
func (c *hwctx) quiet(now uint64) (uint64, StallKind) {
	if len(c.threads) == 0 {
		return never, KindIdle
	}
	if c.blockedUntil <= now+1 {
		return now + 1, c.blockCause
	}
	for _, t := range c.threads {
		if t.finished() {
			return now + 1, c.blockCause
		}
	}
	if len(c.threads) > 1 {
		return min(c.blockedUntil, c.nextSwitch), c.blockCause
	}
	return c.blockedUntil, c.blockCause
}

// runnable reports whether the context can issue at cycle now.
func (c *hwctx) runnable(now uint64) bool {
	return len(c.threads) > 0 && now >= c.blockedUntil
}

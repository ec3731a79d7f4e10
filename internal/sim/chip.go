package sim

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/trace"
)

// coreModel is one simulated core. Chip.Run steps a core only on cycles
// where it can change state, and charges the cycles in between in bulk.
type coreModel interface {
	// step simulates one cycle, returning the number of instructions
	// issued and, when zero, the classification of the lost cycle. A core
	// with no software thread returns KindIdle.
	step(now uint64) (int, StallKind)
	// quiet, called right after step(now), returns the first later cycle
	// at which step could do anything other than return kind with no
	// state change (never, for a core with no thread).
	quiet(now uint64) (wake uint64, kind StallKind)
	// contexts exposes the core's hardware contexts for thread placement.
	contexts() []*hwctx
}

// never is the wake cycle of a core that no cycle can change.
const never = ^uint64(0)

// Chip is one simulated chip multiprocessor (or, with a private-L2
// hierarchy, one node-per-core SMP): cores plus memory hierarchy plus the
// software threads scheduled onto them.
type Chip struct {
	cfg     Config
	hier    *cache.Hierarchy
	cores   []coreModel
	ctxs    []*hwctx // all hardware contexts, placement order
	ctxCore []int    // owning core of each placement slot

	threads    []*Thread
	threadCore []int    // owning core per thread, for warming
	doneAt     []uint64 // completion cycle per thread
	live       int

	// onMark, when set, receives every retired trace.Mark record with
	// the simulated cycle at which the surrounding work executed.
	onMark func(thread int, id uint64, begin bool, cycle uint64)

	now uint64
}

// NewChip builds a chip from cfg; zero config fields take defaults.
func NewChip(cfg Config) *Chip {
	cfg = cfg.withDefaults()
	ch := &Chip{cfg: cfg, hier: cache.NewHierarchy(cfg.Hier)}
	for i := 0; i < cfg.Cores; i++ {
		switch cfg.Camp {
		case FatCamp:
			c := &fcCore{id: i, cfg: &ch.cfg, chip: ch, ctx: &hwctx{}}
			ch.cores = append(ch.cores, c)
		case LeanCamp:
			c := &lcCore{id: i, cfg: &ch.cfg, chip: ch}
			for k := 0; k < cfg.CtxPerCore; k++ {
				c.ctxs = append(c.ctxs, &hwctx{})
			}
			ch.cores = append(ch.cores, c)
		default:
			panic(fmt.Sprintf("sim: unknown camp %d", cfg.Camp))
		}
	}
	// Placement order interleaves contexts across cores so the first N
	// threads land on N distinct cores.
	for k := 0; ; k++ {
		added := false
		for coreID, c := range ch.cores {
			if k < len(c.contexts()) {
				ch.ctxs = append(ch.ctxs, c.contexts()[k])
				ch.ctxCore = append(ch.ctxCore, coreID)
				added = true
			}
		}
		if !added {
			break
		}
	}
	return ch
}

// Config returns the chip's (defaulted) configuration.
func (ch *Chip) Config() Config { return ch.cfg }

// Hierarchy exposes the memory hierarchy (for stats inspection).
func (ch *Chip) Hierarchy() *cache.Hierarchy { return ch.hier }

// AddThread binds a software thread reading from s to the chip, placing it
// on hardware contexts round-robin. It returns the thread id.
func (ch *Chip) AddThread(s *trace.Stream) int {
	return ch.AddThreadAt(s, len(ch.threads)%len(ch.ctxs))
}

// AddThreadAt binds a software thread to a specific hardware context
// (placement order interleaves contexts across cores: context i lives on
// core i%Cores). Scheduling experiments use it to co-locate producer and
// consumer threads on one core.
func (ch *Chip) AddThreadAt(s *trace.Stream, ctxIdx int) int {
	id := len(ch.threads)
	t := newThread(id, s, ch, ch.cfg.BranchEvery)
	ctxIdx %= len(ch.ctxs)
	ch.ctxs[ctxIdx].threads = append(ch.ctxs[ctxIdx].threads, t)
	ch.threads = append(ch.threads, t)
	ch.threadCore = append(ch.threadCore, ch.ctxCore[ctxIdx])
	ch.doneAt = append(ch.doneAt, 0)
	ch.live++
	return id
}

// pump obtains at least one more chunk for t, returning false when t's
// trace has ended. While t's producer has nothing ready, the pump drains
// whatever other producers have queued (into their threads' local chunk
// buffers) so that a producer blocked on a full channel always makes
// progress — without this, engine lock coupling between client threads
// could deadlock the single-threaded simulator.
func (ch *Chip) pump(t *Thread) bool {
	for {
		c, ok, ended := t.stream.RecvChunk(0)
		if ok {
			t.chunks = append(t.chunks, c)
			return true
		}
		if ended {
			return false
		}
		progress := false
		for _, o := range ch.threads {
			if o == t || o.done {
				continue
			}
			if oc, okc, _ := o.stream.RecvChunk(0); okc {
				o.chunks = append(o.chunks, oc)
				progress = true
			}
		}
		if progress {
			continue
		}
		// Nothing anywhere: wait briefly for t's producer, then rescan.
		c, ok, ended = t.stream.RecvChunk(200 * time.Microsecond)
		if ok {
			t.chunks = append(t.chunks, c)
			return true
		}
		if ended {
			return false
		}
	}
}

// SetMarkHandler installs the span-marker callback (obs.Tracer.OnMark).
// Marks cost zero simulated cycles, so installing a handler never
// changes timing; a chip without one discards markers.
func (ch *Chip) SetMarkHandler(f func(thread int, id uint64, begin bool, cycle uint64)) {
	ch.onMark = f
}

// mark delivers one retired span marker at the current cycle.
func (ch *Chip) mark(t *Thread, r trace.Ref) {
	if ch.onMark != nil {
		ch.onMark(t.ID, r.MarkID(), r.MarkBegin(), ch.now)
	}
}

// threadFinished records a thread's completion.
func (ch *Chip) threadFinished(t *Thread, now uint64) {
	if ch.doneAt[t.ID] == 0 {
		ch.doneAt[t.ID] = now
		ch.live--
	}
}

// Warm consumes up to refs trace records from every thread, updating cache
// contents without timing — SimFlex-style functional warming before a
// measured window.
func (ch *Chip) Warm(refs int) {
	for i, t := range ch.threads {
		core := ch.threadCore[i]
		for n := 0; n < refs; n++ {
			r, ok := t.next()
			if !ok {
				break
			}
			switch r.Kind() {
			case trace.Exec:
				ch.hier.WarmFetch(core, r.Addr())
			case trace.Load:
				ch.hier.WarmRead(core, r.Addr())
			case trace.Store:
				ch.hier.WarmWrite(core, r.Addr())
			case trace.Prefetch:
				// Warming has no clock, so a prefetch degenerates to a read.
				ch.hier.WarmRead(core, r.Addr())
			case trace.Mark:
				// Free: stamp it (warming does not advance the clock)
				// without consuming warm budget, so traced and untraced
				// runs warm the identical reference prefix.
				ch.mark(t, r)
				n--
			}
		}
	}
}

// Run simulates up to maxCycles cycles (beyond those already elapsed) and
// returns the measured result. It stops early when every thread's trace
// has been fully executed. Statistics cover only this measurement window,
// so Warm → Run yields a warmed measurement.
//
// Run is event-driven: each core is stepped only at its wake cycle (the
// next cycle at which it can issue or change state, per coreModel.quiet),
// in core-index order within a cycle, and the clock jumps to the earliest
// wake. The cycles a core skips are charged to the stall kind step would
// have returned on each of them, so the result is identical to stepping
// every core every cycle (the tests hold Run to such a stepped oracle).
func (ch *Chip) Run(maxCycles uint64) Result {
	start, statsStart := ch.now, ch.hier.Stats
	end := start + maxCycles
	if end < start {
		end = never
	}
	var bd Breakdown
	var instructions uint64
	// Per core: the next cycle to step it, the first cycle not yet
	// charged, and the stall kind charged for the cycles in between.
	// Every core is stepped on the first cycle, since threads may have
	// been added or warmed since the last Run.
	wake := make([]uint64, len(ch.cores))
	from := make([]uint64, len(ch.cores))
	kind := make([]StallKind, len(ch.cores))
	for i := range ch.cores {
		wake[i], from[i] = ch.now, ch.now
	}
	for ch.now < end && ch.live > 0 {
		next := never
		for i, c := range ch.cores {
			if wake[i] <= ch.now {
				bd.Cycles[kind[i]] += ch.now - from[i]
				issued, k := c.step(ch.now)
				if issued > 0 {
					instructions += uint64(issued)
					k = KindComp
				}
				bd.Add(k)
				wake[i], kind[i] = c.quiet(ch.now)
				from[i] = ch.now + 1
			}
			next = min(next, wake[i])
		}
		if ch.live == 0 {
			// The last thread retired: the run ends with this cycle.
			next = ch.now + 1
		}
		ch.now = min(next, end)
	}
	for i := range ch.cores {
		bd.Cycles[kind[i]] += ch.now - from[i]
	}
	return ch.result(start, statsStart, bd, instructions)
}

// result packages the measurement window that began at cycle start, when
// the hierarchy's counters read statsStart.
func (ch *Chip) result(start uint64, statsStart cache.Stats, bd Breakdown, instructions uint64) Result {
	done := make([]uint64, len(ch.doneAt))
	copy(done, ch.doneAt)
	return Result{
		Cycles:       ch.now - start,
		Instructions: instructions,
		Breakdown:    bd,
		Cache:        ch.hier.Stats.Sub(statsStart),
		ThreadDone:   done,
	}
}

// Now returns the current simulated cycle.
func (ch *Chip) Now() uint64 { return ch.now }

// ThreadProgress returns how many trace records thread id has executed
// (or warmed) so far.
func (ch *Chip) ThreadProgress(id int) uint64 { return ch.threads[id].consumed }

package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/trace"
)

// runStepped is the cycle-stepped reference for Chip.Run: every core is
// stepped on every cycle, in core-index order. The event-driven Run must
// reproduce its results exactly.
func (ch *Chip) runStepped(maxCycles uint64) Result {
	start, statsStart := ch.now, ch.hier.Stats
	var bd Breakdown
	var instructions uint64
	for ch.now-start < maxCycles && ch.live > 0 {
		for _, c := range ch.cores {
			issued, kind := c.step(ch.now)
			if issued > 0 {
				instructions += uint64(issued)
				kind = KindComp
			}
			bd.Add(kind)
		}
		ch.now++
	}
	return ch.result(start, statsStart, bd, instructions)
}

// preloaded records gen into a stream that buffers the whole trace
// before the simulator reads it (up to 4M records), so no run waits on a
// producer goroutine.
func preloaded(gen func(r *trace.Recorder)) *trace.Stream {
	rec, s := trace.PipeSized(1024, 4096)
	gen(rec)
	rec.Close()
	return s
}

// randomTrace returns a deterministic generator of a mixed trace for one
// thread: code walks over a footprint larger than the L1I, independent
// and dependent loads over a private region and a region every thread
// shares, stores to the shared region (coherence traffic), prefetches
// and span markers.
func randomTrace(seed int64, thread, n int) func(r *trace.Recorder) {
	code := mem.CodeSeg{Base: mem.CodeBase, Size: 64 << 10}
	shared := mem.HeapBase
	private := mem.HeapBase + mem.Addr(thread+1)<<24
	return func(r *trace.Recorder) {
		rng := rand.New(rand.NewSource(seed*131 + int64(thread)))
		mark := uint64(thread) << 32
		for i := 0; i < n; i++ {
			switch x := rng.Intn(100); {
			case x < 30:
				r.ExecAt(code, rng.Intn(code.Size), 1+rng.Intn(60))
			case x < 45:
				r.Load(private+mem.Addr(rng.Intn(1<<20)), rng.Intn(3) == 0)
			case x < 60:
				r.Load(shared+mem.Addr(rng.Intn(16<<10)), rng.Intn(3) == 0)
			case x < 72:
				r.Store(shared + mem.Addr(rng.Intn(16<<10)))
			case x < 80:
				r.Prefetch(private + mem.Addr(rng.Intn(1<<20)))
			case x < 84:
				mark++
				r.Mark(mark, true)
				r.Exec(code, rng.Intn(20))
				r.Mark(mark, false)
			default:
				r.Exec(mem.CodeSeg{Base: mem.CodeBase, Size: 64}, 1+rng.Intn(100))
			}
		}
	}
}

// markEvent is one span marker delivered to the chip's mark handler.
type markEvent struct {
	thread int
	id     uint64
	begin  bool
	cycle  uint64
}

// diffChip is one chip of a differential pair plus the markers it saw.
type diffChip struct {
	ch    *Chip
	marks []markEvent
}

// randomChipPair builds two identical chips, with identical threads
// placed identically, from seed: camp, 1-4 cores, 1-4 contexts per core,
// 1-12 threads, a small quantum, CMP or SMP, stream buffers on or off.
func randomChipPair(seed int64) (a, b *diffChip) {
	rng := rand.New(rand.NewSource(seed))
	camp := Camp(rng.Intn(2))
	cfg := Config{
		Camp:        camp,
		Cores:       1 + rng.Intn(4),
		CtxPerCore:  1 + rng.Intn(4),
		BranchEvery: 20 + rng.Intn(200),
		Quantum:     uint64(50 + rng.Intn(500)),
		SwitchCost:  1 + rng.Intn(40),
		Hier: cache.Config{
			L1ISize:   4 << 10,
			L1DSize:   4 << 10,
			L2Size:    64 << (10 + rng.Intn(3)),
			L2Lat:     5 + rng.Intn(20),
			MemLat:    50 + rng.Intn(300),
			L2Ports:   1 + rng.Intn(2),
			SharedL2:  rng.Intn(2) == 0,
			StreamBuf: rng.Intn(2) == 0,
		},
	}
	threads := 1 + rng.Intn(12)
	lens := make([]int, threads)
	place := make([]int, threads) // -1: round-robin AddThread
	for i := range lens {
		lens[i] = 100 + rng.Intn(1500)
		place[i] = -1
		if rng.Intn(3) == 0 {
			place[i] = rng.Intn(cfg.WithDefaults().Contexts())
		}
	}
	build := func() *diffChip {
		d := &diffChip{ch: NewChip(cfg)}
		d.ch.SetMarkHandler(func(thread int, id uint64, begin bool, cycle uint64) {
			d.marks = append(d.marks, markEvent{thread, id, begin, cycle})
		})
		for i := range lens {
			s := preloaded(randomTrace(seed, i, lens[i]))
			if place[i] < 0 {
				d.ch.AddThread(s)
			} else {
				d.ch.AddThreadAt(s, place[i])
			}
		}
		return d
	}
	return build(), build()
}

// stalledPast reports whether some context still has a thread blocked
// beyond the chip's current cycle.
func (ch *Chip) stalledPast() bool {
	for _, ctx := range ch.ctxs {
		if len(ctx.threads) > 0 && ctx.blockedUntil > ch.now {
			return true
		}
	}
	return false
}

// TestRunMatchesSteppedOracle holds the event-driven Run to the
// cycle-stepped oracle on random chips and traces: Warm, then three runs
// with small limits (most of which end in the middle of a stall), then a
// run to completion. Results, cumulative hierarchy statistics and the
// marker sequence must be identical after every call.
func TestRunMatchesSteppedOracle(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 24
	}
	midStall := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		ev, st := randomChipPair(seed)
		rng := rand.New(rand.NewSource(-seed))
		warm := rng.Intn(300)
		ev.ch.Warm(warm)
		st.ch.Warm(warm)
		limits := []uint64{
			uint64(1 + rng.Intn(3000)),
			uint64(1 + rng.Intn(3000)),
			uint64(1 + rng.Intn(3000)),
			1 << 26,
		}
		for call, limit := range limits {
			got, want := ev.ch.Run(limit), st.ch.runStepped(limit)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, run %d (limit %d): event-driven\n%+v\nstepped\n%+v", seed, call, limit, got, want)
			}
			if ev.ch.hier.Stats != st.ch.hier.Stats {
				t.Fatalf("seed %d, run %d: hierarchy stats %+v, stepped %+v", seed, call, ev.ch.hier.Stats, st.ch.hier.Stats)
			}
			if !reflect.DeepEqual(ev.marks, st.marks) {
				t.Fatalf("seed %d, run %d: %d marks, stepped %d (or stamps differ)", seed, call, len(ev.marks), len(st.marks))
			}
			if call < 3 && got.Cycles == limit && ev.ch.stalledPast() {
				midStall++
			}
		}
		if ev.ch.live != 0 {
			t.Fatalf("seed %d: %d threads unfinished after the final run", seed, ev.ch.live)
		}
	}
	if midStall == 0 {
		t.Fatalf("no limited run ended in the middle of a stall")
	}
	t.Logf("%d seeds, %d limited runs ended mid-stall", seeds, midStall)
}

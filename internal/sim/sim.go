// Package sim implements the trace-driven CMP timing simulator standing in
// for the paper's FLEXUS full-system simulations.
//
// Two core models realize the paper's taxonomy (Table 1):
//
//   - Fat camp (FC): wide out-of-order cores. The model issues up to
//     IssueWidth instructions per cycle from a single hardware context,
//     overlaps independent misses up to an MLP limit within a reorder
//     window, and serializes dependent loads (pointer chasing) behind the
//     loads that feed them.
//
//   - Lean camp (LC): narrow in-order cores with several hardware contexts
//     interleaved round-robin. A context that misses in L1 becomes
//     non-runnable until the miss is serviced; the core issues from the
//     remaining runnable contexts, hiding stalls when the workload is
//     saturated and exposing them when it is not.
//
// Both camps share the identical memory hierarchy of internal/cache, per
// the paper's methodology. Every cycle of every active core is attributed
// to computation, an instruction-stall level, a data-stall level, or other
// (branch/scheduling) stalls, yielding the execution-time breakdowns of
// Figures 5–7.
//
// The simulator is cycle-accurate but event-driven. Database cores spend
// most cycles stalled on misses whose completion cycle is known when they
// issue, so Chip.Run steps a core only at its wake cycle — the next cycle
// at which it can issue or change state — and charges the cycles it
// skipped to their stall kind in one add. Results are identical to
// stepping every core every cycle; that stepped loop is kept as a
// test-only oracle, and a differential test holds Run to it.
package sim

import (
	"fmt"

	"repro/internal/cache"
)

// Camp selects the core technology per the paper's taxonomy.
type Camp uint8

// The two camps.
const (
	FatCamp Camp = iota
	LeanCamp
)

func (c Camp) String() string {
	if c == FatCamp {
		return "FC"
	}
	return "LC"
}

// Config describes one simulated chip.
type Config struct {
	Camp  Camp
	Cores int

	// Lean-camp parameters.
	CtxPerCore int // hardware contexts per LC core (default 4)
	LCIssue    int // LC issue width (default 2)

	// Fat-camp parameters. FCIssue is the *sustainable* issue rate on
	// database code rather than the nominal 4-wide pipeline: tight data
	// dependencies keep wide OoO machines near two instructions per cycle
	// on DBMS workloads (the paper's "limited ILP").
	FCIssue int // effective FC issue width (default 2)
	Window  int // reorder window in instructions (default 256, Power5-class)
	MLP     int // maximum overlapped outstanding data misses (default 8)

	// Branch behaviour ("other" stalls). A mispredict is charged every
	// BranchEvery instructions; the penalty reflects pipeline depth.
	BranchEvery   int // default 140
	BranchPenalty int // default: FC 15 (deep pipe), LC 4 (shallow)

	// OS-like scheduling when software threads exceed hardware contexts.
	Quantum    uint64 // timeslice in cycles (default 10000)
	SwitchCost int    // cycles charged on a context switch (default 120)

	Hier cache.Config // memory hierarchy (Cores is filled in)
}

// WithDefaults returns the configuration with all zero fields replaced by
// their defaults — the exact parameters a NewChip(c) would run with.
func (c Config) WithDefaults() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.Cores == 0 {
		c.Cores = 4
	}
	if c.CtxPerCore == 0 {
		c.CtxPerCore = 4
	}
	if c.LCIssue == 0 {
		c.LCIssue = 2
	}
	if c.FCIssue == 0 {
		c.FCIssue = 2
	}
	if c.Window == 0 {
		c.Window = 256
	}
	if c.MLP == 0 {
		c.MLP = 4
	}
	if c.BranchEvery == 0 {
		c.BranchEvery = 140
	}
	if c.BranchPenalty == 0 {
		if c.Camp == FatCamp {
			c.BranchPenalty = 15
		} else {
			c.BranchPenalty = 4
		}
	}
	if c.Quantum == 0 {
		c.Quantum = 10000
	}
	if c.SwitchCost == 0 {
		c.SwitchCost = 120
	}
	c.Hier.Cores = c.Cores
	return c
}

// Contexts returns the number of hardware contexts on the chip.
func (c Config) Contexts() int {
	if c.Camp == LeanCamp {
		return c.Cores * c.CtxPerCore
	}
	return c.Cores
}

// StallKind classifies where a core cycle went.
type StallKind uint8

// Cycle classifications.
const (
	KindComp StallKind = iota // issued at least one instruction
	KindIStallL2
	KindIStallMem
	KindDStallL2 // waiting on an on-chip L2 hit or L1-to-L1 transfer
	KindDStallMem
	KindDStallCoh
	KindOther // branch mispredicts, context-switch overhead
	KindIdle  // no software thread available
	numKinds
)

func (k StallKind) String() string {
	switch k {
	case KindComp:
		return "computation"
	case KindIStallL2:
		return "I-stall-L2"
	case KindIStallMem:
		return "I-stall-mem"
	case KindDStallL2:
		return "D-stall-L2hit"
	case KindDStallMem:
		return "D-stall-mem"
	case KindDStallCoh:
		return "D-stall-coherence"
	case KindOther:
		return "other"
	case KindIdle:
		return "idle"
	}
	return fmt.Sprintf("StallKind(%d)", uint8(k))
}

// stallFor maps a hierarchy service level to the stall charged while
// waiting on it.
func stallFor(lvl cache.Level, instr bool) StallKind {
	switch lvl {
	case cache.LvlL2:
		if instr {
			return KindIStallL2
		}
		return KindDStallL2
	case cache.LvlMem:
		if instr {
			return KindIStallMem
		}
		return KindDStallMem
	case cache.LvlCoh:
		return KindDStallCoh
	}
	return KindComp // L1 hits never stall attribution
}

// Breakdown counts core cycles by classification, summed over active cores.
type Breakdown struct {
	Cycles [numKinds]uint64
}

// Add accumulates one cycle of kind k.
func (b *Breakdown) Add(k StallKind) { b.Cycles[k]++ }

// Computation returns cycles that issued instructions.
func (b Breakdown) Computation() uint64 { return b.Cycles[KindComp] }

// IStalls returns instruction-stall cycles (all levels).
func (b Breakdown) IStalls() uint64 {
	return b.Cycles[KindIStallL2] + b.Cycles[KindIStallMem]
}

// DStalls returns data-stall cycles (all levels).
func (b Breakdown) DStalls() uint64 {
	return b.Cycles[KindDStallL2] + b.Cycles[KindDStallMem] + b.Cycles[KindDStallCoh]
}

// DStallL2 returns the paper's headline component: stalls on on-chip L2 hits.
func (b Breakdown) DStallL2() uint64 { return b.Cycles[KindDStallL2] }

// Other returns branch/scheduling stall cycles.
func (b Breakdown) Other() uint64 { return b.Cycles[KindOther] }

// Idle returns cycles of cores with no software thread.
func (b Breakdown) Idle() uint64 { return b.Cycles[KindIdle] }

// Busy returns all non-idle core cycles (the denominator of the paper's
// execution-time breakdowns).
func (b Breakdown) Busy() uint64 {
	var t uint64
	for k, v := range b.Cycles {
		if StallKind(k) != KindIdle {
			t += v
		}
	}
	return t
}

// Frac returns kind k as a fraction of busy cycles.
func (b Breakdown) Frac(k StallKind) float64 {
	busy := b.Busy()
	if busy == 0 {
		return 0
	}
	return float64(b.Cycles[k]) / float64(busy)
}

// Result reports one simulation run.
type Result struct {
	Cycles       uint64 // elapsed chip cycles in the measured window
	Instructions uint64 // user instructions committed chip-wide
	Breakdown    Breakdown
	Cache        cache.Stats
	ThreadDone   []uint64 // per-thread completion cycle (0 = unfinished)
}

// IPC returns aggregate committed user instructions per chip cycle, the
// paper's throughput metric.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// CPI returns aggregate cycles per instruction over busy core cycles,
// the metric of Figures 3, 6 and 7.
func (r Result) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Breakdown.Busy()) / float64(r.Instructions)
}

// CPIComponent returns the CPI contribution of the given stall kind.
func (r Result) CPIComponent(k StallKind) float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Breakdown.Cycles[k]) / float64(r.Instructions)
}

// ResponseTime returns the completion cycle of thread 0, the unsaturated
// response-time metric (0 when it did not finish).
func (r Result) ResponseTime() uint64 {
	if len(r.ThreadDone) == 0 {
		return 0
	}
	return r.ThreadDone[0]
}

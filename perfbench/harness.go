package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// wrongAnswer marks a failed operation whose output contradicts its
// oracle, as opposed to one that errored or measured nothing. A run is
// correct only if no operation gave a wrong answer; every failure, wrong
// or not, counts against the operations attempted.
type wrongAnswer struct{ error }

func wrongf(format string, args ...any) error { return wrongAnswer{fmt.Errorf(format, args...)} }

func isWrong(err error) bool {
	var w wrongAnswer
	return errors.As(err, &w)
}

// sample is one attempted operation.
type sample struct {
	Op  string
	Lat time.Duration
	Err error
	// Done is when the operation returned, from the start of its loop.
	Done time.Duration
	// Mcycles is the simulated Mcycles of the operation's subject
	// execution (0 on paths that do not simulate).
	Mcycles float64
}

// loopSpec bounds one closed loop: each client sends its next operation
// only after the previous one returned.
type loopSpec struct {
	Clients int
	// Ops is how many operations the loop sends: the first Ops of the
	// run's seeded sequence, each sent once. A fixed count, not a time
	// window, so two runs of one seed attempt and fail the same
	// operations.
	Ops int
	// Deadline stops the loop early if the host is too slow for Ops; it
	// is a safety cap, not the measure of a run.
	Deadline time.Time
}

// loopRun is what a closed loop measured.
type loopRun struct {
	Samples []sample
	Elapsed time.Duration
}

// closedLoop sends operations 0..spec.Ops-1 of the sequence. Clients
// take the next index as soon as their previous operation returns, so
// the loop serves exactly the sequence's operations and neither client
// idles before the last one is handed out. No operation is retried or
// dropped.
func closedLoop(spec loopSpec, do func(i int) sample) loopRun {
	var (
		mu   sync.Mutex
		run  loopRun
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < spec.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= spec.Ops || time.Now().After(spec.Deadline) {
					return
				}
				s := do(i)
				s.Done = time.Since(start)
				mu.Lock()
				run.Samples = append(run.Samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	run.Elapsed = time.Since(start)
	return run
}

// timed runs f and returns its wall time.
func timed(f func() error) (time.Duration, error) {
	t := time.Now()
	err := f()
	return time.Since(t), err
}

// setupRuns is how many times a run repeats its set-up; setup_s is the
// median, so one descheduled build does not move it.
const setupRuns = 9

// repeatSetup builds the workload's environment setupRuns times and
// keeps the last one. Earlier environments are released and collected
// before the next build, so a later build is not taxed by the garbage of
// an earlier one and peak memory counts one environment.
func repeatSetup[E any](build func() (E, error), release func(E)) (E, []float64, error) {
	var env E
	var secs []float64
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			release(env)
			var zero E
			env = zero
			runtime.GC()
			debug.FreeOSMemory()
		}
		d, err := timed(func() error {
			var err error
			env, err = build()
			return err
		})
		if err != nil {
			return env, nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, d.Seconds())
	}
	return env, secs, nil
}

// loopSummary folds a measured loop into the end-to-end figures.
type loopSummary struct {
	Attempted, Failed, Wrong int
	Failures                 []string
	Lats                     []float64
	Mcycles                  []float64
	ByOp                     map[string]*opStats
	// OpsPerS is the median of the loop's window rates (windowRates).
	OpsPerS float64
	Rates   []float64
	Elapsed float64
}

// opStats summarizes one kind of operation within a loop.
type opStats struct {
	Count  int     `json:"count"`
	Failed int     `json:"failed"`
	P50    float64 `json:"latency_p50_s"`
	lats   []float64
}

// summarize folds run into its figures. window is the number of
// operations per throughput window: one block of the mix, so each window
// holds the same work.
func summarize(run loopRun, window int) loopSummary {
	s := loopSummary{Attempted: len(run.Samples), ByOp: map[string]*opStats{}, Elapsed: run.Elapsed.Seconds()}
	for _, x := range run.Samples {
		op := s.ByOp[x.Op]
		if op == nil {
			op = &opStats{}
			s.ByOp[x.Op] = op
		}
		op.Count++
		if x.Err != nil {
			s.Failed++
			op.Failed++
			if isWrong(x.Err) {
				s.Wrong++
			}
			if len(s.Failures) < 20 {
				s.Failures = append(s.Failures, fmt.Sprintf("%s: %v", x.Op, x.Err))
			}
			continue
		}
		s.Lats = append(s.Lats, x.Lat.Seconds())
		op.lats = append(op.lats, x.Lat.Seconds())
		if x.Mcycles > 0 {
			s.Mcycles = append(s.Mcycles, x.Mcycles)
		}
	}
	for _, op := range s.ByOp {
		op.P50 = median(op.lats)
	}
	s.Rates = windowRates(run.Samples, window)
	s.OpsPerS = median(s.Rates)
	if len(s.Rates) == 0 && run.Elapsed > 0 {
		s.OpsPerS = float64(len(s.Lats)) / run.Elapsed.Seconds()
	}
	return s
}

// windowRates cuts the loop's timeline at every window-th operation to
// return, and gives each whole window's successful operations per
// second. The median of these is the loop's throughput: a burst of
// host contention slows the windows it falls in, not the median.
func windowRates(samples []sample, window int) []float64 {
	if window < 1 {
		return nil
	}
	byDone := append([]sample(nil), samples...)
	sort.Slice(byDone, func(a, b int) bool { return byDone[a].Done < byDone[b].Done })
	var rates []float64
	var from time.Duration
	for end := window; end <= len(byDone); end += window {
		ok := 0
		for _, x := range byDone[end-window : end] {
			if x.Err == nil {
				ok++
			}
		}
		to := byDone[end-1].Done
		if to > from {
			rates = append(rates, float64(ok)/(to-from).Seconds())
		}
		from = to
	}
	return rates
}

// tailP is the tail percentile the benchmark reports.
const tailP = 0.90

// endToEnd computes the end-to-end metrics of an untraced loop.
func (s loopSummary) endToEnd(setups []float64) map[string]float64 {
	return map[string]float64{
		"ops_per_s":     s.OpsPerS,
		"latency_p50_s": median(s.Lats),
		"latency_p90_s": percentile(s.Lats, tailP),
		"success_rate":  float64(s.Attempted-s.Failed) / float64(max(s.Attempted, 1)),
		"setup_s":       median(setups),
		"peak_rss_mib":  peakRSSMiB(),
	}
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns, the definition an outside spread check uses.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := percentile(xs, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(xs, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
}

func TestP90NeedsTenSamplesBeyond(t *testing.T) {
	if n := minSamplesForTail(0.9); n != 100 {
		t.Fatalf("minimum samples for p90 = %d, want 100", n)
	}
	for _, c := range []struct {
		n      int
		beyond int
		ok     bool
	}{
		{0, 0, false}, {10, 1, false}, {99, 9, false}, {100, 10, true}, {101, 10, true}, {250, 25, true},
	} {
		if got := samplesBeyond(c.n, 0.9); got != c.beyond {
			t.Errorf("samplesBeyond(%d) = %d, want %d", c.n, got, c.beyond)
		}
		if got := tailSupported(c.n, 0.9); got != c.ok {
			t.Errorf("tailSupported(%d) = %v, want %v", c.n, got, c.ok)
		}
	}
}

func at(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "op", Start: at(0), End: at(100)},
		// Two overlapping children cover [10, 50): 40 ms, counted once.
		{ID: 2, Parent: 1, Name: "a", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Name: "b", Start: at(20), End: at(50)},
		// A disjoint child covers [60, 70).
		{ID: 4, Parent: 1, Name: "a", Start: at(60), End: at(70)},
		// A grandchild is subtracted from its parent only.
		{ID: 5, Parent: 3, Name: "c", Start: at(25), End: at(35)},
		// A child running past its parent's end is clipped.
		{ID: 6, Parent: 4, Name: "c", Start: at(65), End: at(90)},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]time.Duration{
		1: at(50), 2: at(30), 3: at(20), 4: at(5), 5: at(10), 6: at(25),
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	rows := ledger(spans)
	byName := map[string]LedgerRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if r := byName["a"]; r.Count != 2 || math.Abs(r.SelfS-0.035) > 1e-12 || math.Abs(r.TotalS-0.040) > 1e-12 {
		t.Errorf("ledger row a = %+v, want count 2, self 0.035 s, total 0.040 s", r)
	}
	if got := selfMean(rows, "c"); math.Abs(got-0.0175) > 1e-12 {
		t.Errorf("mean self time of c = %v, want 0.0175", got)
	}
	if got := selfMean(rows, "missing"); got != 0 {
		t.Errorf("mean self time of an absent span = %v, want 0", got)
	}
}

func TestTracerRecordsParentsAndNilIsFree(t *testing.T) {
	var none *Tracer
	if sp := none.Begin(nil, 1, "x"); sp != nil {
		t.Fatal("nil tracer opened a span")
	}
	none.Begin(nil, 1, "x").Set("k", "v").End() // must not panic

	tr := newTracer()
	root := tr.Begin(nil, 7, "op")
	kid := tr.Begin(root, 0, "child")
	kid.End()
	root.End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	if spans[1].Parent != spans[0].ID || spans[1].Op != 7 {
		t.Errorf("child %+v does not hang under root %+v in op 7", spans[1], spans[0])
	}
}

// sequence returns the first n operations of a run's sequence.
func sequence[T any](mix []T, seed int64, n int) []T {
	var out []T
	for i := 0; i < n; i++ {
		out = append(out, blockOp(mix, seed, i))
	}
	return out
}

func testGeneratorIsPureAndBalanced[T comparable](t *testing.T, name string, mix []T) {
	t.Helper()
	n := 3 * len(mix)
	a, b := sequence(mix, 42, n), sequence(mix, 42, n)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("%s: the same seed gave two sequences", name)
	}
	if reflect.DeepEqual(a, sequence(mix, 43, n)) {
		t.Errorf("%s: seeds 42 and 43 gave the same sequence", name)
	}
	// Every block holds the whole mix once, whatever the seed.
	want := map[T]int{}
	for _, op := range mix {
		want[op]++
	}
	for blk := 0; blk < 3; blk++ {
		got := map[T]int{}
		for _, op := range a[blk*len(mix) : (blk+1)*len(mix)] {
			got[op]++
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: block %d is not the mix: %v", name, blk, got)
		}
	}
}

func TestOpGeneratorsArePureFunctionsOfTheSeed(t *testing.T) {
	testGeneratorIsPureAndBalanced(t, "serve-dss", serveDSSMix)
	testGeneratorIsPureAndBalanced(t, "serve-oltp", serveOLTPMix)
	testGeneratorIsPureAndBalanced(t, "native-dss", nativeMix)
	cells := figure4Cells()
	names := make([]string, len(cells))
	for i, c := range cells {
		names[i] = cellName(c)
	}
	testGeneratorIsPureAndBalanced(t, "figure-cells", names)
	if nativeParamSeed(1, 0) == nativeParamSeed(2, 0) || nativeParamSeed(1, 0) == nativeParamSeed(1, 1) {
		t.Error("native parameter seeds collide")
	}
	// A native block runs its six plans on one pool entry, and the
	// blocks walk the pool in order.
	for i := range 2 * nativeParamSets * len(nativeMix) {
		if want := i / len(nativeMix) % nativeParamSets; nativeParams(i) != want {
			t.Fatalf("operation %d uses pool entry %d, want %d", i, nativeParams(i), want)
		}
	}
}

func TestFigure4CellsAreDistinct(t *testing.T) {
	cells := figure4Cells()
	if len(cells) != 14 {
		t.Fatalf("%d cells, want 14", len(cells))
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[cellName(c)] {
			t.Errorf("duplicate cell %s", cellName(c))
		}
		seen[cellName(c)] = true
	}
}

func TestClosedLoopSendsEachOperationOnceAndKeepsFailures(t *testing.T) {
	var mu sync.Mutex
	sent := map[int]int{}
	run := closedLoop(loopSpec{Clients: 2, Ops: 24, Deadline: time.Now().Add(time.Minute)}, func(i int) sample {
		mu.Lock()
		sent[i]++
		mu.Unlock()
		s := sample{Op: "x", Lat: time.Millisecond}
		if i%2 == 1 {
			s.Err = os.ErrInvalid
		}
		time.Sleep(time.Millisecond)
		return s
	})
	if len(sent) != 24 || len(run.Samples) != 24 {
		t.Fatalf("sent %d distinct operations as %d samples, want 24", len(sent), len(run.Samples))
	}
	for i, n := range sent {
		if i < 0 || i >= 24 || n != 1 {
			t.Errorf("operation %d sent %d times", i, n)
		}
	}
	sum := summarize(run, 4)
	if sum.Attempted != 24 || sum.Failed != 12 || len(sum.Lats) != 12 {
		t.Errorf("summary: %d attempted, %d failed, %d latencies; want 24, 12, 12",
			sum.Attempted, sum.Failed, len(sum.Lats))
	}
	if len(sum.Rates) != 6 || sum.OpsPerS <= 0 {
		t.Errorf("%d windows at %v ops/s, want 6 windows", len(sum.Rates), sum.OpsPerS)
	}
}

func TestWindowRatesAreSuccessesPerWindow(t *testing.T) {
	ms := time.Millisecond
	// Returned out of order; windows of 2 cut at 100, 300 and 400 ms.
	samples := []sample{
		{Done: 300 * ms}, {Done: 100 * ms}, {Done: 50 * ms},
		{Done: 200 * ms, Err: os.ErrInvalid}, {Done: 400 * ms}, {Done: 350 * ms},
		{Done: 500 * ms}, // a partial window is not a rate
	}
	got := windowRates(samples, 2)
	want := []float64{20, 5, 20}
	if len(got) != len(want) {
		t.Fatalf("rates %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("rates %v, want %v", got, want)
		}
	}
	if median(got) != 20 {
		t.Errorf("median rate %v, want 20: one slow window does not move it", median(got))
	}
}

func TestDriverSendsWholeBlocks(t *testing.T) {
	d := driver{Block: 12, Rate: 1.9}
	if n := d.ops(20, 120); n != 120 {
		t.Errorf("20 s at 1.9/s with at least 120: %d operations, want 120", n)
	}
	if n := d.ops(100, 0); n != 192 {
		t.Errorf("100 s at 1.9/s: %d operations, want 192 (16 blocks)", n)
	}
	if n := d.ops(0, 0); n != 12 {
		t.Errorf("no time: %d operations, want one block", n)
	}
}

// BENCHMARK.json at the root of the tree must name exactly the metrics
// this program prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, m := range spec.EndToEnd {
		got[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(got, endToEndUnits) {
		t.Errorf("end_to_end %v, program prints %v", got, endToEndUnits)
	}
	got = map[string]string{}
	for _, m := range spec.PerLayer {
		got[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(got, perLayerUnits) {
		var missing []string
		for n := range perLayerUnits {
			if _, ok := got[n]; !ok {
				missing = append(missing, n)
			}
		}
		sort.Strings(missing)
		t.Errorf("per_layer differs from the program's metrics; missing %v", missing)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}

func TestClosedLoopStopsAtTheDeadline(t *testing.T) {
	spec := loopSpec{Clients: 2, Ops: 1 << 30, Deadline: time.Now().Add(20 * time.Millisecond)}
	run := closedLoop(spec, func(i int) sample {
		time.Sleep(time.Millisecond)
		return sample{Op: "x", Lat: time.Millisecond}
	})
	if len(run.Samples) == 0 || len(run.Samples) > 100 {
		t.Errorf("%d samples in a 20 ms loop", len(run.Samples))
	}
}

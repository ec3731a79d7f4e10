package sim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/trace"
)

// BenchmarkChipRun measures the simulator's own speed in simulated
// Mcycles per host second, per camp, on two shapes: one streaming thread
// on a 4-core chip (the vec-dss request shape: one core runs the query,
// three sit idle) and 16 pointer-chasing threads (the saturated shape).
// Traces are recorded before the timer runs, so only Chip.Run is timed.
func BenchmarkChipRun(b *testing.B) {
	stream := func(int) func(*trace.Recorder) { return streamScan(40000) }
	chase := func(th int) func(*trace.Recorder) {
		walk := chaseInRegion(mem.HeapBase+mem.Addr(th)<<24, 4<<20)
		return func(r *trace.Recorder) {
			for i := 0; i < 50; i++ {
				walk(r)
			}
		}
	}
	shapes := []struct {
		name    string
		threads int
		gen     func(thread int) func(*trace.Recorder)
	}{
		{"stream-1t-4c", 1, stream},
		{"chase-16t", 16, chase},
	}
	for _, camp := range []Camp{FatCamp, LeanCamp} {
		for _, sh := range shapes {
			b.Run(fmt.Sprintf("%v/%s", camp, sh.name), func(b *testing.B) {
				var cycles uint64
				var elapsed time.Duration
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					ch := NewChip(testConfig(camp, 4))
					for th := 0; th < sh.threads; th++ {
						ch.AddThread(preloaded(sh.gen(th)))
					}
					b.StartTimer()
					start := time.Now()
					cycles += ch.Run(1 << 34).Cycles
					elapsed += time.Since(start)
				}
				b.ReportMetric(float64(cycles)/1e6/elapsed.Seconds(), "sim-Mcycles/s")
			})
		}
	}
}

package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// TestDSSSidesRepeat is the oracle behind Run simulating each side once:
// every DSS side whose threads share no work is a pure function of its
// trace, so two runs must agree on the whole sim.Result (cycles, stall
// breakdown, cache statistics, ThreadDone) and on Rows and Digest. The
// shared side and multi-worker parallel sides are left out: their morsel
// claims and scan attach points follow host timing.
func TestDSSSidesRepeat(t *testing.T) {
	type side struct {
		name string
		run  func() (Side, error)
	}
	var sides []side
	vecCell := DefaultModeCell(ModeVecDSS, sim.FatCamp)
	parCell := DefaultModeCell(ModeParallelDSS, sim.FatCamp)
	for _, q := range []int{1, 6, 13} {
		for _, vectorized := range []bool{false, true} {
			sides = append(sides, side{fmt.Sprintf("vec-dss/q%d/vectorized=%v", q, vectorized), func() (Side, error) {
				v, err := sharedRunner.RunVecDSS(vecCell, q, vectorized, 7)
				return vecSide(v), err
			}})
		}
		sides = append(sides, side{fmt.Sprintf("parallel-dss/q%d/1-worker", q), func() (Side, error) {
			v, err := sharedRunner.RunParallelDSS(parCell, q, 1, 7)
			return Side{Cycles: v.Cycles, Result: v.Result, Rows: v.Rows, Digest: v.Digest}, err
		}})
	}
	shCell := DefaultModeCell(ModeSharedDSS, sim.FatCamp)
	sides = append(sides, side{"shared-dss/q6/unshared-x4", func() (Side, error) {
		v, err := sharedRunner.RunSharedDSS(shCell, 6, 4, false, 7)
		return sharedSide(v), err
	}})

	for _, s := range sides {
		t.Run(s.name, func(t *testing.T) {
			first, err := s.run()
			if err != nil {
				t.Fatal(err)
			}
			again, err := s.run()
			if err != nil {
				t.Fatal(err)
			}
			if first.Rows != again.Rows || first.Digest != again.Digest {
				t.Errorf("output moved: %d rows %#x, then %d rows %#x", first.Rows, first.Digest, again.Rows, again.Digest)
			}
			if first.Cycles != again.Cycles || !reflect.DeepEqual(first.Result, again.Result) {
				t.Errorf("simulation moved: %d cycles, then %d\nfirst: %+v\nagain: %+v",
					first.Cycles, again.Cycles, first.Result, again.Result)
			}
		})
	}
}

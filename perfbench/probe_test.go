package main

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The sim-layer probe replays a recorded trace instead of simulating the
// plan live; it must see exactly what the server's vectorized side
// simulates, or its host times would describe a different run.
func TestReplayMatchesDirectSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates two test-scale queries")
	}
	r := core.NewRunner(core.TestScale())
	h, err := r.TPCH()
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7
	cell := core.DefaultModeCell(core.ModeVecDSS, sim.FatCamp)
	for _, q := range []int{6, 13} {
		direct, err := r.RunVecDSS(cell, q, true, seed)
		if err != nil {
			t.Fatal(err)
		}
		refs, err := recordTrace(h, q, workload.RandomParams(rand.New(rand.NewSource(seed))))
		if err != nil {
			t.Fatal(err)
		}
		res, _ := simulate(nil, nil, "fc", cell, refs, 1<<34)
		if res.ThreadDone[0] != direct.Cycles || res.Instructions != direct.Result.Instructions ||
			!reflect.DeepEqual(res.Breakdown, direct.Result.Breakdown) || res.Cache != direct.Result.Cache {
			t.Errorf("q%d: replay ran %d cycles, %d instructions; direct %d cycles, %d instructions",
				q, res.ThreadDone[0], res.Instructions, direct.Cycles, direct.Result.Instructions)
		}
	}
}

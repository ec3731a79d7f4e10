package main

import (
	"fmt"
	"math/rand"
)

// Every workload's operation sequence is a pure function of (workload
// seed, index): the ops come in blocks that each hold the whole mix
// once, and the seed only shuffles each block. So every run serves the
// identical mix, whichever seed it draws, and only the order moves. The
// clients of a loop take the sequence's operations in turn.

// blockOp returns operation i of the sequence over the mix base.
func blockOp[T any](base []T, seed int64, i int) T {
	b := i / len(base)
	rng := rand.New(rand.NewSource(mixSeed(seed, b)))
	return base[rng.Perm(len(base))[i%len(base)]]
}

// mixSeed derives the shuffle seed of one block.
func mixSeed(seed int64, block int) int64 {
	return seed*1_000_003 + int64(block)*104_729 + 1
}

// dssOp is one POST /v1/query of the serve-dss mix.
type dssOp struct {
	Mode    string
	Query   int
	Clients int // shared-dss consumers
	Workers int // parallel-dss target workers
}

func (o dssOp) String() string {
	switch o.Mode {
	case "shared-dss":
		return fmt.Sprintf("%s.q%d.c%d", o.Mode, o.Query, o.Clients)
	case "parallel-dss":
		return fmt.Sprintf("%s.q%d.w%d", o.Mode, o.Query, o.Workers)
	}
	return fmt.Sprintf("%s.q%d", o.Mode, o.Query)
}

// serveDSSMix: half vec-dss over Q1/Q6/Q13, a quarter shared-dss Q6 at
// 4 clients, a quarter parallel-dss over Q1/Q6/Q13 at 4 workers.
var serveDSSMix = []dssOp{
	{Mode: "vec-dss", Query: 1}, {Mode: "vec-dss", Query: 1},
	{Mode: "vec-dss", Query: 6}, {Mode: "vec-dss", Query: 6},
	{Mode: "vec-dss", Query: 13}, {Mode: "vec-dss", Query: 13},
	{Mode: "shared-dss", Query: 6, Clients: 4},
	{Mode: "shared-dss", Query: 6, Clients: 4},
	{Mode: "shared-dss", Query: 6, Clients: 4},
	{Mode: "parallel-dss", Query: 1, Workers: 4},
	{Mode: "parallel-dss", Query: 6, Workers: 4},
	{Mode: "parallel-dss", Query: 13, Workers: 4},
}

// oltpOp is one POST /v1/txn of the serve-oltp mix.
type oltpOp struct {
	Clients, Txns, Parts, RemotePct int
}

func (o oltpOp) String() string {
	return fmt.Sprintf("staged-oltp.c%d.p%d.r%d", o.Clients, o.Parts, o.RemotePct)
}

// serveOLTPMix: clients {8, 16} x parts {1, 2} x remote_pct {0, 10},
// 8 transactions per client.
var serveOLTPMix = func() []oltpOp {
	var out []oltpOp
	for _, c := range []int{8, 16} {
		for _, p := range []int{1, 2} {
			for _, r := range []int{0, 10} {
				out = append(out, oltpOp{Clients: c, Txns: 8, Parts: p, RemotePct: r})
			}
		}
	}
	return out
}()

// nativeOp is one call of the native-dss loop: query Query at Workers
// host workers.
type nativeOp struct {
	Query, Workers int
}

func (o nativeOp) String() string { return fmt.Sprintf("q%d.w%d", o.Query, o.Workers) }

// nativeParamSets is the size of a run's pool of predicate parameters.
// A small pool lets the row oracle run before timing starts.
const nativeParamSets = 16

// nativeMix: Q1/Q6/Q13 at 1 and 2 workers. Block b runs all six on
// entry b mod nativeParamSets of the parameter pool, so every block is
// the same six plans and the blocks walk the pool in order.
var nativeMix = func() []nativeOp {
	var out []nativeOp
	for _, q := range []int{1, 6, 13} {
		for _, w := range []int{1, 2} {
			out = append(out, nativeOp{Query: q, Workers: w})
		}
	}
	return out
}()

// nativeParams is the pool entry operation i of the sequence uses.
func nativeParams(i int) int { return i / len(nativeMix) % nativeParamSets }

// nativeParamSeed is the RandomParams seed of pool entry k.
func nativeParamSeed(seed int64, k int) int64 { return seed*7_777 + int64(k)*131 + 3 }

package staged

import (
	"testing"

	"repro/internal/engine"
)

func TestMultiStagePipelineBothExecutors(t *testing.T) {
	// scan -> filter -> project -> count through both executors must
	// agree with a direct Volcano evaluation.
	db, tb := buildTable(t)
	preds := []engine.Pred{engine.PredInt(0, engine.GE, 2500)}

	volcanoCount := 0
	vctx := db.NewCtx(nil, 9, 8<<20)
	err := engine.Run(vctx, &engine.Project{
		Child: &engine.Filter{Child: &engine.SeqScan{Table: tb}, Preds: preds},
		Cols:  []int{1, 2},
	}, func([]byte) error { volcanoCount++; return nil })
	if err != nil {
		t.Fatal(err)
	}

	mk := func() *Pipeline {
		return &Pipeline{
			DB:     db,
			Source: &engine.SeqScan{Table: tb},
			Stages: []Stage{
				FilterStage(db, tb.Schema, preds),
				ProjectStage(db, tb.Schema, []int{1, 2}),
			},
			Sink: NewCountSink(db),
		}
	}

	actx := db.NewCtx(nil, 10, 8<<20)
	pl := mk()
	n, err := pl.RunAffinity(actx)
	if err != nil {
		t.Fatal(err)
	}
	if n != volcanoCount {
		t.Fatalf("affinity counted %d, volcano %d", n, volcanoCount)
	}

	pl2 := mk()
	ctxs := []*engine.Ctx{
		db.NewCtx(nil, 11, 8<<20), db.NewCtx(nil, 12, 8<<20),
		db.NewCtx(nil, 13, 8<<20), db.NewCtx(nil, 14, 8<<20),
	}
	n2, err := pl2.RunParallel(ctxs)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != volcanoCount {
		t.Fatalf("parallel counted %d, volcano %d", n2, volcanoCount)
	}
}

func TestTinyBatchesStillCorrect(t *testing.T) {
	db, tb := buildTable(t)
	ctx := db.NewCtx(nil, 15, 8<<20)
	pl := pipelineFor(db, tb, ctx)
	pl.BatchRows = 1 // degenerate packets
	n, err := pl.RunAffinity(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8000 {
		t.Fatalf("batch=1 absorbed %d rows", n)
	}
	checkGroups(t, pl.Sink.(*AggSink).Groups())
}

func TestEmptySourcePipeline(t *testing.T) {
	db, tb := buildTable(t)
	ctx := db.NewCtx(nil, 16, 8<<20)
	pl := &Pipeline{
		DB:     db,
		Source: &engine.Limit{Child: &engine.SeqScan{Table: tb}, N: 0},
		Stages: []Stage{FilterStage(db, tb.Schema, nil)},
		Sink:   NewCountSink(db),
	}
	n, err := pl.RunAffinity(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("empty source produced %d rows", n)
	}
}

func TestParallelEmptySource(t *testing.T) {
	db, tb := buildTable(t)
	pl := &Pipeline{
		DB:     db,
		Source: &engine.Limit{Child: &engine.SeqScan{Table: tb}, N: 0},
		Stages: []Stage{FilterStage(db, tb.Schema, nil)},
		Sink:   NewCountSink(db),
	}
	ctxs := []*engine.Ctx{
		db.NewCtx(nil, 17, 8<<20), db.NewCtx(nil, 18, 8<<20), db.NewCtx(nil, 19, 8<<20),
	}
	n, err := pl.RunParallel(ctxs)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("parallel empty source produced %d rows", n)
	}
}

// TestVecSourceBothExecutors: a pipeline fed by the vectorized scan
// (blocks straight into the stage chain in affinity mode, bulk-copied
// into ring packets in pool mode) agrees with the row-sourced run.
func TestVecSourceBothExecutors(t *testing.T) {
	db, tb := buildTable(t)
	preds := []engine.Pred{engine.PredInt(0, engine.LT, 8000)}
	mk := func(ctx *engine.Ctx) *Pipeline {
		return &Pipeline{
			DB:        db,
			VecSource: &engine.ScanVec{Table: tb},
			Stages:    []Stage{FilterStage(db, tb.Schema, preds)},
			Sink:      NewAggSink(ctx, db, tb.Schema, 1, 2),
		}
	}

	actx := db.NewCtx(nil, 21, 8<<20)
	pl := mk(actx)
	n, err := pl.RunAffinity(actx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8000 {
		t.Fatalf("vec affinity absorbed %d rows, want 8000", n)
	}
	checkGroups(t, pl.Sink.(*AggSink).Groups())

	// The sink's hash table gets an arena no worker allocates from:
	// consumers absorb under the sink lock but grow packets without it.
	pl2 := mk(db.NewCtx(nil, 24, 8<<20))
	ctxs := []*engine.Ctx{
		db.NewCtx(nil, 22, 8<<20), db.NewCtx(nil, 23, 8<<20), db.NewCtx(nil, 25, 8<<20),
	}
	n2, err := pl2.RunParallel(ctxs)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 8000 {
		t.Fatalf("vec parallel absorbed %d rows, want 8000", n2)
	}
	checkGroups(t, pl2.Sink.(*AggSink).Groups())
}

// TestExpandingTransformGrowsPacket: a stage emitting more rows than its
// packet holds must grow the packet, not silently drop rows (Transform's
// contract is zero or more emissions per input).
func TestExpandingTransformGrowsPacket(t *testing.T) {
	db, tb := buildTable(t)
	ctx := db.NewCtx(nil, 25, 8<<20)
	duplicate := Stage{
		Name: "duplicate",
		Out:  tb.Schema,
		Fn: func() Transform {
			return func(_ *engine.Ctx, row []byte, emit func([]byte)) {
				emit(row)
				emit(row)
			}
		},
	}
	pl := &Pipeline{
		DB:        db,
		VecSource: &engine.ScanVec{Table: tb},
		Stages:    []Stage{duplicate},
		Sink:      NewCountSink(db),
	}
	n, err := pl.RunAffinity(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20000 {
		t.Fatalf("duplicating stage absorbed %d rows, want 20000", n)
	}
}

func TestPacketRowPanicsOutOfRange(t *testing.T) {
	db, _ := buildTable(t)
	ctx := db.NewCtx(nil, 20, 1<<20)
	p := NewPacket(ctx.Work, 4, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Row(nil, 0) // empty packet
}

// Command perfbench is the repository's end-to-end benchmark. It drives
// the system from outside through its public entry points — the HTTP
// server over a loopback listener, core.Runner, and the native TPC-H
// plans — with a closed loop of operations whose sequence is a pure
// function of --seed, checks every operation's output, and prints one
// JSON result as the last line of standard output:
//
//	go build -o .bench_build/perfbench . && \
//	  .bench_build/perfbench --workload serve-dss --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it runs the same operations with spans around every
// call into a layer and reports the per-layer ledger instead. Each run
// also writes a stamped result file (spans included) under .bench_out/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type config struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	Started  time.Time
}

// runCap bounds a run's measuring loops from the moment it starts, so a
// run that cannot reach its minimum sample count still exits well
// inside three minutes.
const runCap = 150 * time.Second

// Deadline is when the run's measuring loops must stop.
func (c config) Deadline() time.Time { return c.Started.Add(runCap) }

// workloadSpec is one named traffic mix.
type workloadSpec struct {
	Scale string
	Run   func(cfg config) (*report, error)
}

var workloads = map[string]workloadSpec{
	"serve-dss":    {Scale: "test", Run: runServeDSS},
	"serve-oltp":   {Scale: "test", Run: runServeOLTP},
	"native-dss":   {Scale: "test", Run: runNativeDSS},
	"figure-cells": {Scale: "test", Run: runFigureCells},
}

// Metric is one named number of the result line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndUnits lists the end-to-end metrics of an untraced run.
var endToEndUnits = map[string]string{
	"ops_per_s":     "1/s",
	"latency_p50_s": "s",
	"latency_p90_s": "s",
	"success_rate":  "ratio",
	"setup_s":       "s",
	"peak_rss_mib":  "MiB",
}

// report is everything one run measured; it is written whole to the
// result file, and its headline goes to the last line of stdout.
type report struct {
	Stamp     Stamp              `json:"stamp"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// Extra holds figures kept for the record but not gated: the error
	// rate, simulated Mcycles per operation, sample counts.
	Extra map[string]float64 `json:"extra"`
	// Observed keeps per-operation values whose drift between passes is
	// itself a finding (figure-cells cycles and work per cell).
	Observed map[string][]float64 `json:"observed,omitempty"`
	Setup    []float64            `json:"setup_s_samples"`
	// WindowRates is the untraced loop's throughput per window, in
	// order; ops_per_s is their median.
	WindowRates []float64 `json:"window_rates,omitempty"`
	// ByOp breaks the measured loop down by kind of operation.
	ByOp   map[string]*opStats `json:"by_op,omitempty"`
	Ledger []LedgerRow         `json:"ledger,omitempty"`
	Spans  *Tracer             `json:"spans,omitempty"`
}

// line is the last line of standard output.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var cfg config
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "workload: serve-dss, serve-oltp, native-dss, figure-cells")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload seed: the operation sequence is a pure function of it")
	flag.IntVar(&cfg.Seconds, "seconds", 20, "measuring time per loop, in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer ledger")
	out := flag.String("out", ".bench_out", "directory for the stamped result file")
	flag.Parse()
	cfg.Trace = trace == 1
	cfg.Started = time.Now()
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if cfg.Seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	spec, ok := workloads[cfg.Workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q", cfg.Workload)
	}
	rep, err := spec.Run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	rep.Stamp = stamp(cfg, spec.Scale)
	if rep.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	rep.Extra["error_rate"] = float64(rep.Failed) / float64(rep.Attempted)

	if err := writeReport(*out, rep); err != nil {
		return err
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(os.Stderr, "failed:", f)
	}
	res := line{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]Metric{}}
	if cfg.Trace {
		for _, name := range perLayerNames() {
			res.Metrics[name] = Metric{Value: rep.PerLayer[name], Unit: perLayerUnits[name]}
		}
	} else {
		for name, unit := range endToEndUnits {
			res.Metrics[name] = Metric{Value: rep.EndToEnd[name], Unit: unit}
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func writeReport(dir string, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s.seed%d.trace%d.json", rep.Stamp.Workload, rep.Stamp.Seed, map[bool]int{false: 0, true: 1}[rep.Stamp.Trace])
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func perLayerNames() []string {
	names := make([]string, 0, len(perLayerUnits))
	for n := range perLayerUnits {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

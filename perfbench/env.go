package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// Stamp identifies the host, toolchain, inputs and code of one result.
type Stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Scale      string `json:"scale"`
	HostCPUs   int    `json:"host_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Started    string `json:"started"`
}

// peakRSSMiB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// commitOf names the code under test: BENCH_COMMIT when set, else the
// HEAD of a git checkout at root (read from .git directly, so no child
// process is started), else "unknown".
func commitOf(root string) string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	git := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(git, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(git, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(git, "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

func stamp(cfg config, scale string) Stamp {
	return Stamp{
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		Scale: scale, HostCPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commitOf("."),
		Started: cfg.Started.UTC().Format("2006-01-02T15:04:05Z"),
	}
}

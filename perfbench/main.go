// Command perfbench is the repository benchmark: one named workload,
// driven from a seed, against the GSI reproduction's public API.
//
// The servers run in this process and every secured exchange crosses
// the host's loopback TCP interface, so the numbers include the kernel's
// loopback path but no real network. Load is closed loop: one grid
// client per CPU, each waiting for its reply before sending the next
// request.
//
//	perfbench --workload steady-exchange --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with tracing
// off. With --trace 1 it measures half the time untraced and half
// traced, and reports the per-layer metrics: counters diffed across
// the traced half, self times derived from the spans it collected
// (written to -dir as JSON lines), a ladder of single-layer
// measurements and the tracing overhead. The last line of standard
// output is one JSON object: correct, attempted, failed and metrics.
// Output checks that fail (an echo that does not match, a transfer of
// the wrong length or digest, a permit where the workload expects a
// deny) end the run with exit code 1 and no result line.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.Workload, "workload", "", "workload name: "+workloadNames())
	flag.Uint64Var(&cfg.Seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.Seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = per-layer run (half untraced, half traced)")
	flag.StringVar(&cfg.Dir, "dir", ".bench_build", "directory for WAL state, spans and results")
	flag.Parse()
	cfg.Trace = traceFlag == 1
	cfg.Clients = runtime.NumCPU()
	if traceFlag != 0 && traceFlag != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if _, ok := workloads[cfg.Workload]; !ok {
		fatalf("unknown workload %q (want one of %s)", cfg.Workload, workloadNames())
	}
	if cfg.Seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	dir, err := filepath.Abs(cfg.Dir)
	if err != nil {
		fatalf("%v", err)
	}
	cfg.Dir = filepath.Join(dir, "perfbench")
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		fatalf("%v", err)
	}

	// A run that hangs is a failed run: give up well inside the
	// harness's 180 s limit rather than be killed without a word.
	const budget = 170 * time.Second
	watchdog := time.AfterFunc(budget, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v; aborting\n", budget)
		os.Exit(3)
	})
	res, err := run(context.Background(), cfg)
	watchdog.Stop()
	if err != nil {
		var fe *fatalError
		if errors.As(err, &fe) {
			fatalf("output check failed: %v", err)
		}
		fatalf("%v", err)
	}

	report, err := json.Marshal(res.Report)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("perfbench %s seed=%d trace=%v: %s\n", cfg.Workload, cfg.Seed, cfg.Trace, res.Report.Note)
	for _, name := range res.order {
		m := res.Metrics[name]
		fmt.Printf("  %-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("report %s\n", report)
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", cfg.Workload, cfg.Seed, traceFlag)
	if err := os.WriteFile(filepath.Join(cfg.Dir, name), append(report, '\n'), 0o644); err != nil {
		fatalf("writing result: %v", err)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// endToEnd lists the metrics an untraced run reports, in BENCHMARK.json
// order.
var endToEnd = []string{"ops_per_s", "op_p50_ms", "peak_rss_MB", "setup_s"}

// TestWorkloads runs every workload briefly, untraced and traced, and
// checks that every metric is emitted, nothing failed and no output
// check tripped (a fail-open or a corrupted echo or transfer ends the
// run with an error).
func TestWorkloads(t *testing.T) {
	seconds := 2.0
	if testing.Short() {
		seconds = 0.4
	}
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				cfg := config{Workload: name, Seed: 7, Seconds: seconds, Trace: traced, Clients: 2, Segments: 2, Dir: t.TempDir()}
				res, err := run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				for phase, pr := range res.Report.Phases {
					if pr.FailedRatio != 0 || pr.Named["failed_ratio"] != 0 {
						t.Errorf("%s failed_ratio = %v", phase, pr.FailedRatio)
					}
				}
				want := endToEnd
				if traced {
					want = nil
					for _, m := range perLayer {
						want = append(want, m.name)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d: %v", len(res.Metrics), len(want), res.order)
				}
				for _, m := range want {
					v, ok := res.Metrics[m]
					if !ok {
						t.Errorf("metric %s missing", m)
						continue
					}
					if !traced && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v", m, v.Value)
					}
				}
				if traced && res.Metrics["trace.overhead_ratio"].Value <= 0 {
					t.Errorf("trace.overhead_ratio = %v", res.Metrics["trace.overhead_ratio"].Value)
				}
			})
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics this program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not in the program", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json names %d end-to-end metrics, runs report %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if i < len(endToEnd) && m.Name != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %s, want %s", i, m.Name, endToEnd[i])
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, traced runs report %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, want %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func TestSummarizeTail(t *testing.T) {
	v := make([]float64, 200)
	for i := range v {
		v[i] = float64(200 - i)
	}
	d := summarize(v)
	// 200 samples: p99 would leave 2 beyond it, so the tail backs off
	// to p95, the highest percentile with ten samples beyond.
	if d.N != 200 || d.P50 != 100 || d.TailQ != 0.95 || d.Tail != 190 {
		t.Fatalf("summarize = %+v", d)
	}
}

func TestSelfTime(t *testing.T) {
	at := func(ms int64) int64 { return int64(time.Duration(ms) * time.Millisecond) }
	nodes := []spanNode{
		{op: "op.exchange", start: at(0), end: at(10), client: 0},
		{op: "call.exchange", start: at(1), end: at(9), client: 0},
		{op: "client.stream", start: at(2), end: at(6), client: 0},
		{op: "server.stream", start: at(3), end: at(5), client: -1},
	}
	nodes[1].trace, nodes[1].id, nodes[1].parent = [16]byte{1}, [8]byte{2}, [8]byte{1}
	nodes[0].trace, nodes[0].id = [16]byte{1}, [8]byte{1}
	// client.stream roots its own trace; server.stream continues it.
	nodes[2].trace, nodes[2].id = [16]byte{2}, [8]byte{3}
	nodes[3].trace, nodes[3].id, nodes[3].parent = [16]byte{2}, [8]byte{4}, [8]byte{3}
	sink := newSpanSink()
	sink.shards = []*spanShard{{spans: nodes}}
	set := sink.collect()
	want := []int64{at(2), at(4), at(2), at(2)}
	for i, w := range want {
		if set.self[i] != w {
			t.Errorf("%s self = %v, want %v", nodes[i].op, time.Duration(set.self[i]), time.Duration(w))
		}
	}
	if set.parent[2] != 1 {
		t.Errorf("client.stream attached to %d, want the enclosing call span", set.parent[2])
	}
}

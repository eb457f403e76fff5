package main

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// spanNode is one finished span, from the benchmark's own tracers or
// from the program's.
type spanNode struct {
	trace  trace.TraceID
	id     trace.SpanID
	parent trace.SpanID
	op     string
	start  int64 // unix ns
	end    int64
	client int // the client whose tracer recorded it; -1 server side
}

// spanSink collects sampled spans through the tracers' export hook:
// the records each flight recorder (Tracer().Recorder()) holds, but
// all of them rather than the most recent few thousand, up to
// maxSpans, after which it counts what it drops. Each tracer gets its
// own shard, so clients do not contend on one lock.
type spanSink struct {
	mu      sync.Mutex
	shards  []*spanShard
	kept    atomic.Int64
	dropped atomic.Int64
}

// maxSpans bounds the sink's memory (about 70 bytes a span).
const maxSpans = 400_000

type spanShard struct {
	mu     sync.Mutex
	client int
	spans  []spanNode
}

func newSpanSink() *spanSink { return &spanSink{} }

func (s *spanSink) hook(client int) func(trace.SpanRecord) {
	sh := &spanShard{client: client}
	s.mu.Lock()
	s.shards = append(s.shards, sh)
	s.mu.Unlock()
	return func(r trace.SpanRecord) {
		if s.kept.Add(1) > maxSpans {
			s.dropped.Add(1)
			return
		}
		start := r.Start.UnixNano()
		n := spanNode{trace: r.TraceID, id: r.SpanID, parent: r.Parent, op: r.Op, start: start, end: start + int64(r.Duration), client: sh.client}
		sh.mu.Lock()
		sh.spans = append(sh.spans, n)
		sh.mu.Unlock()
	}
}

// reset drops what warm-up recorded.
func (s *spanSink) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.spans = sh.spans[:0]
		sh.mu.Unlock()
	}
	s.kept.Store(0)
	s.dropped.Store(0)
}

// spanSet is the collected spans linked into trees.
type spanSet struct {
	nodes    []spanNode
	parent   []int // index of the parent node, -1 for roots
	self     []int64
	children [][]int
}

// collect links every span to its parent: by trace and span id where
// the parent was recorded, and otherwise — a root the program started
// on a client's behalf, such as client.stream or gridftp.put — to the
// innermost benchmark span of the same client that encloses it. Each
// client runs one operation at a time, so enclosure is unambiguous.
// Self time is a span's duration minus the part its children cover.
func (s *spanSink) collect() *spanSet {
	s.mu.Lock()
	var nodes []spanNode
	for _, sh := range s.shards {
		sh.mu.Lock()
		nodes = append(nodes, sh.spans...)
		sh.mu.Unlock()
	}
	s.mu.Unlock()
	set := &spanSet{nodes: nodes, parent: make([]int, len(nodes)), self: make([]int64, len(nodes)), children: make([][]int, len(nodes))}
	type key struct {
		t trace.TraceID
		s trace.SpanID
	}
	byID := make(map[key]int, len(nodes))
	benchByClient := map[int][]int{}
	for i, n := range nodes {
		byID[key{n.trace, n.id}] = i
		if isBenchSpan(n.op) && n.client >= 0 {
			benchByClient[n.client] = append(benchByClient[n.client], i)
		}
	}
	for _, idx := range benchByClient {
		sort.Slice(idx, func(a, b int) bool { return nodes[idx[a]].start < nodes[idx[b]].start })
	}
	for i, n := range nodes {
		set.parent[i] = -1
		if p, ok := byID[key{n.trace, n.parent}]; ok && n.parent != (trace.SpanID{}) {
			set.parent[i] = p
		} else if !isBenchSpan(n.op) && n.client >= 0 {
			set.parent[i] = enclosing(nodes, benchByClient[n.client], n)
		}
		if p := set.parent[i]; p >= 0 && !cumulative(n.op) {
			set.children[p] = append(set.children[p], i)
		}
	}
	for i, n := range nodes {
		set.self[i] = n.end - n.start - covered(nodes, set.children[i], n.start, n.end)
	}
	return set
}

// enclosing returns the innermost span of idx (sorted by start) that
// encloses n, or -1.
func enclosing(nodes []spanNode, idx []int, n spanNode) int {
	best := -1
	j := sort.Search(len(idx), func(k int) bool { return nodes[idx[k]].start > n.start })
	for k := j - 1; k >= 0 && k >= j-64; k-- {
		c := nodes[idx[k]]
		if c.end >= n.end {
			if best < 0 || c.end-c.start < nodes[best].end-nodes[best].start {
				best = idx[k]
			}
			if !strings.HasPrefix(c.op, "call.") {
				break // reached the op root: nothing further out is this op's
			}
		}
	}
	return best
}

// covered is the length of the union of the children's intervals,
// clipped to [start, end].
func covered(nodes []spanNode, kids []int, start, end int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(nodes[k].start, start), min(nodes[k].end, end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	return total + curB - curA
}

// isBenchSpan reports spans the benchmark records around its own calls
// into the program: op.* roots and their call.* children.
func isBenchSpan(op string) bool {
	return strings.HasPrefix(op, "op.") || strings.HasPrefix(op, "call.")
}

// cumulative reports the record layer's seal/open pipeline spans: sums
// of busy time over a whole stream, not intervals, so they are kept in
// the written trace but never subtracted from a parent.
func cumulative(op string) bool { return strings.HasSuffix(op, ".pipeline") }

// layerOf maps a span to the layer its self time is charged to.
func layerOf(op string) string {
	switch {
	case strings.HasPrefix(op, "op."):
		return "bench"
	case op == "client.handshake" || op == "server.handshake":
		return "handshake"
	case op == "server.authz":
		return "authz"
	case strings.HasPrefix(op, "server.") || strings.HasPrefix(op, "gridftp.server."):
		return "server"
	case cumulative(op):
		return ""
	default:
		return "client" // call.*, client.*, gridftp client spans
	}
}

// writeSpans writes the traced half's spans as JSON lines, one span
// per line with its self time. Very long runs keep whole traces up to
// maxWritten spans, chosen by trace id.
func writeSpans(cfg config, set *spanSet) (string, int, error) {
	const maxWritten = 50_000
	path := filepath.Join(cfg.Dir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.Workload, cfg.Seed))
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	keep := 256
	if len(set.nodes) > maxWritten {
		keep = 256 * maxWritten / len(set.nodes)
	}
	var base int64
	for i, n := range set.nodes {
		if i == 0 || n.start < base {
			base = n.start
		}
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	written := 0
	for i, n := range set.nodes {
		if int(n.trace[0]) >= keep {
			continue
		}
		parent := ""
		if n.parent != (trace.SpanID{}) {
			parent = hex.EncodeToString(n.parent[:])
		}
		rec := struct {
			Trace   string `json:"trace"`
			Span    string `json:"span"`
			Parent  string `json:"parent,omitempty"`
			Op      string `json:"op"`
			Client  int    `json:"client"`
			StartNS int64  `json:"start_ns"`
			DurNS   int64  `json:"dur_ns"`
			SelfNS  int64  `json:"self_ns"`
		}{hex.EncodeToString(n.trace[:]), hex.EncodeToString(n.id[:]), parent, n.op, n.client, n.start - base, n.end - n.start, set.self[i]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return "", 0, err
		}
		written++
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", 0, err
	}
	if err := f.Close(); err != nil {
		return "", 0, err
	}
	return path, written, nil
}

// counters is a snapshot of the program's public counters.
type counters map[string]float64

const (
	cPoolHits     = "pool.hits"
	cPoolDials    = "pool.dials"
	cResumeHits   = "resume.hits"
	cResumeMisses = "resume.misses"
	cVerifyHits   = "verify.hits"
	cVerifyMisses = "verify.misses"
	cAuthzHits    = "authz.hits"
	cAuthzMisses  = "authz.misses"
	cWALRecords   = "wal.records"
	cWALBytes     = "wal.bytes"
	cAuditEvents  = "audit.events"
	cCASDelta     = "cas.delta"
	cCASFull      = "cas.full"
	cCASBytes     = "cas.bytes"
)

func (before counters) diff(after counters) counters {
	d := counters{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// layerSpec is one per-layer metric of the result line.
type layerSpec struct{ name, unit string }

// perLayer lists, in order, every metric a traced run reports; a
// layer the workload does not exercise reads 0.
var perLayer = []layerSpec{
	{"gridcrypto.seal_open_us", "us"},
	{"gss.wrap_unwrap_us", "us"},
	{"gsitransport.roundtrip_us", "us"},
	{"gss.establish_ms", "ms"},
	{"gsitransport.handshake_ms", "ms"},
	{"wssec.establish_ms", "ms"},
	{"gridcert.verify_us", "us"},
	{"gridcert.verify_cache_hit_ratio", "ratio"},
	{"wssec.resume_ratio", "ratio"},
	{"xmlsec.sign_verify_us", "us"},
	{"authz.decide_cached_us", "us"},
	{"authz.decide_cold_us", "us"},
	{"authz.cache_hit_ratio", "ratio"},
	{"pool.hit_ratio", "ratio"},
	{"server.authz_us", "us"},
	{"wal.records_per_op", "records/op"},
	{"wal.bytes_per_op", "B/op"},
	{"secsvc.audit_events_per_op", "events/op"},
	{"cas.delta_ratio", "ratio"},
	{"cas.sync_bytes", "B/sync"},
	{"proc.cpu_util", "ratio"},
	{"go.allocs_per_op", "allocs/op"},
	{"go.gc_pause_tail_us", "us"},
	{"trace.overhead_ratio", "ratio"},
	{"self.bench_us_per_op", "us/op"},
	{"self.client_us_per_op", "us/op"},
	{"self.server_us_per_op", "us/op"},
	{"self.authz_us_per_op", "us/op"},
	{"self.handshake_us_per_op", "us/op"},
}

// layerMetrics derives the per-layer numbers: counters diffed over the
// traced half, self times from its spans, the ladder, and — from the
// untraced half, whose cost they describe — CPU use, allocations and
// GC pauses.
func layerMetrics(plain, traced phase, d counters, spans *spanSet, ladder map[string]float64) map[string]float64 {
	m := map[string]float64{}
	for k, v := range ladder {
		m[k] = v
	}
	ops := traced.completed()
	m["gridcert.verify_cache_hit_ratio"] = ratio(d[cVerifyHits], d[cVerifyMisses])
	m["wssec.resume_ratio"] = ratio(d[cResumeHits], d[cResumeMisses])
	m["authz.cache_hit_ratio"] = ratio(d[cAuthzHits], d[cAuthzMisses])
	m["pool.hit_ratio"] = ratio(d[cPoolHits], d[cPoolDials])
	m["wal.records_per_op"] = perOp(d[cWALRecords], ops)
	m["wal.bytes_per_op"] = perOp(d[cWALBytes], ops)
	m["secsvc.audit_events_per_op"] = perOp(d[cAuditEvents], ops)
	m["cas.delta_ratio"] = ratio(d[cCASDelta], d[cCASFull])
	m["cas.sync_bytes"] = perOp(d[cCASBytes], int64(d[cCASDelta]+d[cCASFull]))
	m["proc.cpu_util"] = plain.cpuUtil
	m["go.allocs_per_op"] = perOp(float64(plain.allocs), plain.completed())
	m["go.gc_pause_tail_us"] = summarize(plain.gcPauses).Tail
	if t := traced.opsPerSec(); t > 0 {
		m["trace.overhead_ratio"] = plain.opsPerSec() / t
	}

	// Self time is charged per operation the spans cover: the op roots
	// collected, which is every operation unless the sink filled up.
	self := map[string]int64{}
	var authz []float64
	var roots int64
	for i, n := range spans.nodes {
		if strings.HasPrefix(n.op, "op.") {
			roots++
		}
		if l := layerOf(n.op); l != "" {
			self[l] += spans.self[i]
		}
		if n.op == "server.authz" {
			authz = append(authz, float64(n.end-n.start)/1e3)
		}
	}
	m["server.authz_us"] = median(authz)
	for _, l := range []string{"bench", "client", "server", "authz", "handshake"} {
		m["self."+l+"_us_per_op"] = perOp(float64(self[l])/1e3, roots)
	}
	return m
}

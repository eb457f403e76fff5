package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/trace"
)

// config is one invocation of the benchmark.
type config struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	Clients  int
	Segments int
	Dir      string
}

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spec describes one workload: why it exists, how many closed-loop
// operations each client runs to warm caches before timing, how many
// segments an untraced run is split into, and how to build its world.
type spec struct {
	why      string
	warmOps  int
	segments int
	build    func(ctx context.Context, b *buildEnv) (workload, error)
}

// workload is a built world the runner drives.
type workload interface {
	// op runs one closed-loop operation for client c. A *fatalError
	// aborts the run; any other error counts the op as failed.
	op(ctx context.Context, c *client) error
	// counters snapshots the public counters the per-layer metrics diff.
	counters() counters
	// ladder times single layers at the workload's message size.
	ladder(ctx context.Context) (map[string]float64, error)
	// close stops the world's servers and removes its state.
	close()
}

var workloads = map[string]spec{
	"steady-exchange": steadySpec,
	"session-churn":   churnSpec,
	"bulk-transfer":   bulkSpec,
	"durable-trust":   durableSpec,
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// buildEnv is what a workload's build function gets.
type buildEnv struct {
	cfg     config
	clients int
	// sink collects spans when the world is traced; nil otherwise.
	sink *spanSink
	// dir is a fresh directory for this world's durable state.
	dir string
	// inputs holds seeded inputs too large to regenerate for every
	// world of a run, by name.
	inputs map[string][]byte
}

// input returns the run's input called name, generating it on first use.
func (b *buildEnv) input(name string, gen func() []byte) []byte {
	if v, ok := b.inputs[name]; ok {
		return v
	}
	v := gen()
	b.inputs[name] = v
	return v
}

func (b *buildEnv) traced() bool { return b.sink != nil }

// fatalError is an output check that failed: the program returned a
// wrong answer, which ends the run instead of counting as a failure.
type fatalError struct{ msg string }

func (e *fatalError) Error() string { return e.msg }

func fatal(format string, args ...any) error {
	return &fatalError{msg: fmt.Sprintf(format, args...)}
}

// client is one closed-loop grid client: its seeded generator, its
// span tracer in traced worlds, and what it measured.
type client struct {
	id  int
	rng *rand.Rand
	tr  *trace.Tracer // benchmark spans; nil when untraced

	lat       []float32 // op latency, ms
	samples   map[string][]float64
	attempted int64
	failed    int64
	firstErr  error
}

// span starts a benchmark span: a root when parent is nil, otherwise
// its child. The returned context carries it, so the program's own
// spans (connect, handshake, the server side across the wire) join the
// same trace. Untraced clients get ctx back and a nil span, whose
// methods do nothing.
func (c *client) span(ctx context.Context, parent *trace.Span, name string) (context.Context, *trace.Span) {
	var sp *trace.Span
	switch {
	case c.tr == nil:
		return ctx, nil
	case parent == nil:
		sp = c.tr.StartRoot(name)
	default:
		sp = parent.StartChild(name)
	}
	return trace.ContextWithSpan(ctx, sp), sp
}

// sample records one value of a workload-specific series: a latency in
// ms, or a rate when the class name ends in _MBps.
func (c *client) sample(class string, v float64) {
	c.samples[class] = append(c.samples[class], v)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// phase is what one timed window measured.
type phase struct {
	elapsed   time.Duration
	attempted int64
	failed    int64
	lat       []float32
	samples   map[string][]float64
	cpuUtil   float64
	allocs    uint64
	gcPauses  []float64 // µs
}

func (p phase) completed() int64 { return p.attempted - p.failed }

func (p phase) opsPerSec() float64 { return float64(p.completed()) / p.elapsed.Seconds() }

// add pools segment p into m.
func (m *phase) add(p phase) {
	if m.samples == nil {
		m.samples = map[string][]float64{}
	}
	busy := m.cpuUtil*m.elapsed.Seconds() + p.cpuUtil*p.elapsed.Seconds()
	m.elapsed += p.elapsed
	m.cpuUtil = busy / m.elapsed.Seconds()
	m.attempted += p.attempted
	m.failed += p.failed
	m.lat = append(m.lat, p.lat...)
	for k, v := range p.samples {
		m.samples[k] = append(m.samples[k], v...)
	}
	m.allocs += p.allocs
	m.gcPauses = append(m.gcPauses, p.gcPauses...)
}

// setUp builds one world and warms it: clients, their seeded
// generators, and warmOps closed-loop operations each.
func setUp(ctx context.Context, cfg config, sp spec, n int, inputs map[string][]byte, sink *spanSink) (workload, []*client, error) {
	dir := filepath.Join(cfg.Dir, fmt.Sprintf("world-%d-%d", os.Getpid(), n))
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	b := &buildEnv{cfg: cfg, clients: cfg.Clients, sink: sink, dir: dir, inputs: inputs}
	built, err := sp.build(ctx, b)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, fmt.Errorf("setting up %s: %w", cfg.Workload, err)
	}
	w := dirWorld{built, dir}
	clients := make([]*client, cfg.Clients)
	for i := range clients {
		c := &client{id: i, rng: rand.New(rand.NewPCG(cfg.Seed, uint64(i)+1))}
		if sink != nil {
			c.tr = trace.New(trace.Config{Sampler: trace.AlwaysSample()})
			c.tr.SetExport(sink.hook(i))
		}
		clients[i] = c
	}
	if _, err := drive(ctx, w, clients, 0, sp.warmOps); err != nil {
		w.close()
		return nil, nil, fmt.Errorf("warming %s: %w", cfg.Workload, err)
	}
	for _, c := range clients {
		if c.failed > 0 {
			w.close()
			return nil, nil, fmt.Errorf("warming %s: %d ops failed: %v", cfg.Workload, c.failed, c.firstErr)
		}
	}
	return w, clients, nil
}

// dirWorld removes the world's directory when the world closes.
type dirWorld struct {
	workload
	dir string
}

func (w dirWorld) close() {
	w.workload.close()
	os.RemoveAll(w.dir)
}

// drive runs every client's closed loop until the duration elapses
// (or, with a zero duration, for exactly ops operations each) and
// returns what the window measured.
func drive(ctx context.Context, w workload, clients []*client, d time.Duration, ops int) (phase, error) {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		fatalMu  sync.Mutex
		fatalErr error
	)
	start := time.Now()
	deadline := start.Add(d)
	for _, c := range clients {
		c.lat, c.samples, c.attempted, c.failed, c.firstErr = nil, map[string][]float64{}, 0, 0, nil
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				if d > 0 && !time.Now().Before(deadline) || d == 0 && i >= ops {
					return
				}
				t0 := time.Now()
				err := w.op(ctx, c)
				took := time.Since(t0)
				c.attempted++
				if err == nil {
					c.lat = append(c.lat, float32(ms(took)))
					continue
				}
				var fe *fatalError
				if errors.As(err, &fe) {
					fatalMu.Lock()
					if fatalErr == nil {
						fatalErr = fmt.Errorf("client %d: %w", c.id, err)
					}
					fatalMu.Unlock()
					cancel()
					return
				}
				// A failed op misses any latency limit: count it at the
				// full window.
				c.failed++
				c.lat = append(c.lat, float32(ms(max(d, took))))
				if c.firstErr == nil {
					c.firstErr = err
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&ms1)
	if fatalErr != nil {
		return phase{}, fatalErr
	}
	p := phase{
		elapsed: elapsed,
		samples: map[string][]float64{},
		cpuUtil: (cpu1 - cpu0).Seconds() / (elapsed.Seconds() * float64(runtime.NumCPU())),
		allocs:  ms1.Mallocs - ms0.Mallocs,
	}
	for i := ms0.NumGC + 1; i <= ms1.NumGC && ms1.NumGC-i < 256; i++ {
		p.gcPauses = append(p.gcPauses, float64(ms1.PauseNs[(i+255)%256])/1e3)
	}
	for _, c := range clients {
		p.attempted += c.attempted
		p.failed += c.failed
		p.lat = append(p.lat, c.lat...)
		for k, v := range c.samples {
			p.samples[k] = append(p.samples[k], v...)
		}
		if c.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: client %d: %d of %d ops failed; first: %v\n", c.id, c.failed, c.attempted, c.firstErr)
		}
	}
	return p, nil
}

// result is one run's outcome.
type result struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]metric
	order     []string
	Report    report
}

func (r *result) add(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.order = append(r.order, name)
}

// run executes one benchmark run as configured.
func run(ctx context.Context, cfg config) (*result, error) {
	sp := workloads[cfg.Workload]
	res := &result{Metrics: map[string]metric{}}
	rep := &res.Report
	rep.Workload, rep.Why, rep.Seed, rep.Seconds, rep.Trace = cfg.Workload, sp.why, cfg.Seed, cfg.Seconds, cfg.Trace
	rep.Clients = cfg.Clients
	rep.Note = fmt.Sprintf("closed loop, %d clients, servers in-process, traffic over loopback TCP (127.0.0.1), not a real network", cfg.Clients)
	rep.Host = collectHost()

	// The untraced time is split into segments, each on a freshly set-up
	// world: setup_s is the median set-up time and ops_per_s and
	// op_p50_ms are medians over segments, so one unlucky world
	// (connection or thread placement, a neighbour's burst) does not move
	// the result. The tail and the workload's own series pool every
	// segment's samples and go to the report. A traced run spends half
	// its time on untraced segments and half on one traced world.
	window := time.Duration(cfg.Seconds * float64(time.Second))
	if cfg.Segments == 0 {
		cfg.Segments = sp.segments
	}
	segLen, segments := window/time.Duration(cfg.Segments), cfg.Segments
	if cfg.Trace {
		window /= 2
		segments = max(1, segments/2)
	}
	inputs := map[string][]byte{}
	var plain phase
	for i := 0; i < segments; i++ {
		t0 := time.Now()
		w, clients, err := setUp(ctx, cfg, sp, i, inputs, nil)
		if err != nil {
			return nil, err
		}
		rep.SetupSamples = append(rep.SetupSamples, time.Since(t0).Seconds())
		seg, err := drive(ctx, w, clients, segLen, 0)
		w.close()
		if err != nil {
			return nil, err
		}
		rep.Segments = append(rep.Segments, segmentReport{OpsPerSec: seg.opsPerSec(), Op: summarize(seg.lat)})
		plain.add(seg)
	}
	rep.WAL = walReport(cfg)
	rep.summarize("untraced", plain)
	res.Attempted, res.Failed = plain.attempted, plain.failed
	if !cfg.Trace {
		var rates, p50s []float64
		for _, seg := range rep.Segments {
			rates, p50s = append(rates, seg.OpsPerSec), append(p50s, seg.Op.P50)
		}
		res.add("setup_s", median(rep.SetupSamples), "s")
		res.add("peak_rss_MB", peakRSSMB(), "MB")
		res.add("ops_per_s", median(rates), "1/s")
		res.add("op_p50_ms", median(p50s), "ms")
		res.Correct = res.Failed == 0
		return res, nil
	}

	// The traced half runs on a fresh world built with tracing on; its
	// set-up is not part of setup_s.
	sink := newSpanSink()
	tw, tclients, err := setUp(ctx, cfg, sp, segments, inputs, sink)
	if err != nil {
		return nil, err
	}
	defer tw.close()
	sink.reset()
	before := tw.counters()
	traced, err := drive(ctx, tw, tclients, window, 0)
	if err != nil {
		return nil, err
	}
	after := tw.counters()
	rep.summarize("traced", traced)
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	spans := sink.collect()
	ladder, err := tw.ladder(ctx)
	if err != nil {
		return nil, fmt.Errorf("layer ladder: %w", err)
	}
	layers := layerMetrics(plain, traced, before.diff(after), spans, ladder)
	for _, m := range perLayer {
		res.add(m.name, layers[m.name], m.unit)
	}
	file, written, err := writeSpans(cfg, spans)
	if err != nil {
		return nil, err
	}
	rep.Spans = &spanFile{Path: file, Written: written, Collected: len(spans.nodes), Dropped: sink.dropped.Load()}
	res.Correct = res.Failed == 0
	return res, nil
}

// report is the run's full record, printed before the result line and
// written beside the spans: host, set-up, every percentile with its
// sample count, and the workload's own series.
type report struct {
	Workload     string                  `json:"workload"`
	Why          string                  `json:"why"`
	Seed         uint64                  `json:"seed"`
	Seconds      float64                 `json:"seconds"`
	Trace        bool                    `json:"trace"`
	Clients      int                     `json:"clients"`
	Note         string                  `json:"note"`
	Host         hostInfo                `json:"host"`
	WAL          *walInfo                `json:"wal,omitempty"`
	SetupSamples []float64               `json:"setup_s_samples"`
	Segments     []segmentReport         `json:"segments"`
	Phases       map[string]*phaseReport `json:"phases"`
	Spans        *spanFile               `json:"spans,omitempty"`
}

type phaseReport struct {
	Seconds     float64            `json:"seconds"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	FailedRatio float64            `json:"failed_ratio"`
	OpsPerSec   float64            `json:"ops_per_s"`
	CPUUtil     float64            `json:"cpu_util"`
	Op          dist               `json:"op_ms"`
	Series      map[string]dist    `json:"series"`
	Named       map[string]float64 `json:"named"`
}

// segmentReport is one untraced segment's rate and latency.
type segmentReport struct {
	OpsPerSec float64 `json:"ops_per_s"`
	Op        dist    `json:"op_ms"`
}

type spanFile struct {
	Path      string `json:"path"`
	Written   int    `json:"written"`
	Collected int    `json:"collected"`
	Dropped   int64  `json:"dropped"`
}

func (r *report) summarize(name string, p phase) {
	if r.Phases == nil {
		r.Phases = map[string]*phaseReport{}
	}
	pr := &phaseReport{
		Seconds:   p.elapsed.Seconds(),
		Attempted: p.attempted,
		Failed:    p.failed,
		OpsPerSec: p.opsPerSec(),
		CPUUtil:   p.cpuUtil,
		Op:        summarize(p.lat),
		Series:    map[string]dist{},
		Named:     map[string]float64{},
	}
	if p.attempted > 0 {
		pr.FailedRatio = float64(p.failed) / float64(p.attempted)
	}
	pr.Named["failed_ratio"] = pr.FailedRatio
	for class, v := range p.samples {
		d := summarize(v)
		pr.Series[class] = d
		if strings.HasSuffix(class, "_MBps") {
			pr.Named[class] = d.P50
			continue
		}
		pr.Named[class+"_p50_ms"] = d.P50
		pr.Named[class+"_tail_ms"] = d.Tail
	}
	r.Phases[name] = pr
}

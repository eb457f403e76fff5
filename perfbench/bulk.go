package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"strings"
	"time"

	"repro/internal/authz"
	"repro/internal/gridftp"
	"repro/internal/record"
	"repro/internal/trace"
	"repro/pkg/gsi"
)

var bulkSpec = spec{
	why:      "per-byte cost of 64 MiB transfers: record pipeline, AEAD, vectored writes and both stripe rendezvous",
	warmOps:  1,
	segments: 4,
	build:    buildBulk,
}

const (
	bulkSize = 64 << 20
	bulkOp   = "bulk.put"
)

// The four transfer paths of the rotation; each has its own _MBps
// series in the report.
var bulkPaths = []string{"gsi_stream", "gsi_striped", "ftp_stream", "ftp_striped"}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type bulk struct {
	b       *buildEnv
	g       *grid
	data    []byte
	digest  uint32
	server  *gsi.Server
	ep      gsi.Endpoint
	ftp     *gridftp.Server
	store   *gridftp.Store
	creds   []*gsi.Credential
	pools   []*gsi.SessionPool
	clients []*gsi.Client
	ftps    []*gridftp.Client
	order   [][]int // per client: the current rotation of bulkPaths
	stripes int
}

func buildBulk(ctx context.Context, b *buildEnv) (workload, error) {
	g, err := newGrid("bulk")
	if err != nil {
		return nil, err
	}
	w := &bulk{b: b, g: g, stripes: b.clients, order: make([][]int, b.clients)}
	w.data = b.input("bulk", func() []byte {
		data := make([]byte, bulkSize)
		fill(rand.New(rand.NewChaCha8(seedBytes(b.cfg.Seed, 0xb01c))), data)
		return data
	})
	w.digest = crc32.Checksum(w.data, castagnoli)
	if w.creds, err = g.users("/O=Bench/OU=bulk/CN=user %d", b.clients); err != nil {
		return nil, err
	}
	dns := identities(w.creds)

	policy := gsi.NewPolicy(gsi.Rule{
		ID: "bulk-users", Effect: gsi.EffectPermit, Subjects: dns,
		Resources: []string{exchangeResource}, Actions: []string{bulkOp},
	})
	opts := append([]gsi.Option{gsi.WithLocalPolicy(policy), gsi.WithStreamHandler(receive)}, traceOpts(b)...)
	if w.server, err = g.env.NewServer(g.host, opts...); err != nil {
		return nil, err
	}
	hookServer(b, w.server)
	if w.ep, err = w.server.Serve(ctx, "127.0.0.1:0", echo); err != nil {
		return nil, err
	}

	w.store = gridftp.NewStore(authz.NewPolicy(authz.DenyOverrides).Add(authz.Rule{
		ID: "bulk-ftp", Effect: authz.EffectPermit, Subjects: dns,
		Resources: []string{"/bulk/*"}, Actions: []string{"read", "write", "delete"},
	}))
	if w.ftp, err = gridftp.NewServer("127.0.0.1:0", w.store, g.host, g.env.Trust()); err != nil {
		w.close()
		return nil, err
	}
	var serverTracer *trace.Tracer
	if b.traced() {
		serverTracer = trace.New(trace.Config{Sampler: trace.AlwaysSample()})
		serverTracer.SetExport(b.sink.hook(-1))
		w.ftp.SetTracer(serverTracer)
	}
	for i, cred := range w.creds {
		pool, err := gsi.NewSessionPool(gsi.WithMaxConcurrentPerHost(4 * w.stripes))
		if err != nil {
			w.close()
			return nil, err
		}
		w.pools = append(w.pools, pool)
		cl, err := g.env.NewClient(cred, append([]gsi.Option{gsi.WithSessionPool(pool)}, traceOpts(b)...)...)
		if err != nil {
			w.close()
			return nil, err
		}
		hookClient(b, cl, i)
		w.clients = append(w.clients, cl)
		fc, err := gridftp.Dial(w.ftp.Addr(), cred, g.env.Trust(), w.ftp.Identity())
		if err != nil {
			w.close()
			return nil, err
		}
		if b.traced() {
			t := trace.New(trace.Config{Sampler: trace.AlwaysSample()})
			t.SetExport(b.sink.hook(i))
			fc.SetTracer(t)
		}
		w.ftps = append(w.ftps, fc)
	}
	return w, nil
}

// receive is the facade server's stream handler: it consumes the
// upload, then answers with the length and CRC-32C it received, so the
// client checks the transfer in band.
func receive(ctx context.Context, peer gsi.Peer, op string, st gsi.Stream) error {
	h := crc32.New(castagnoli)
	n, err := io.Copy(h, st)
	if err != nil {
		return err
	}
	var reply [12]byte
	binary.BigEndian.PutUint64(reply[:8], uint64(n))
	binary.BigEndian.PutUint32(reply[8:], h.Sum32())
	_, err = st.Write(reply[:])
	return err
}

// op moves the 64 MiB payload once, over the next path of the
// client's seeded rotation, and checks what arrived.
func (w *bulk) op(ctx context.Context, c *client) error {
	ctx, cancel := opCtx(ctx)
	defer cancel()
	if len(w.order[c.id]) == 0 {
		w.order[c.id] = c.rng.Perm(len(bulkPaths))
	}
	p := w.order[c.id][0]
	w.order[c.id] = w.order[c.id][1:]
	ctx, root := c.span(ctx, nil, "op.transfer")
	defer root.End()

	t0 := time.Now()
	var err error
	switch bulkPaths[p] {
	case "gsi_stream":
		err = w.facadePut(ctx, c, root, false)
	case "gsi_striped":
		err = w.facadePut(ctx, c, root, true)
	case "ftp_stream":
		_, sp := c.span(ctx, root, "call.gridftp_put")
		var n int64
		n, err = w.ftps[c.id].PutFrom(w.path(c), bytes.NewReader(w.data))
		sp.End()
		if err == nil && n != bulkSize {
			return fatal("gridftp PutFrom sent %d of %d bytes", n, bulkSize)
		}
	case "ftp_striped":
		_, sp := c.span(ctx, root, "call.gridftp_put_striped")
		err = w.ftps[c.id].PutStriped(w.path(c), w.stripes, w.data)
		sp.End()
	}
	took := time.Since(t0)
	if err != nil {
		return fmt.Errorf("%s: %w", bulkPaths[p], err)
	}
	if strings.HasPrefix(bulkPaths[p], "ftp") {
		if err := w.checkStored(c); err != nil {
			return err
		}
	}
	c.sample(bulkPaths[p]+"_MBps", float64(bulkSize)/(1<<20)/took.Seconds())
	return nil
}

func (w *bulk) path(c *client) string { return fmt.Sprintf("/bulk/client%d", c.id) }

// facadePut uploads through OpenStream or OpenStripedStream and checks
// the server's length and digest reply.
func (w *bulk) facadePut(ctx context.Context, c *client, root *trace.Span, striped bool) error {
	octx, sp := c.span(ctx, root, "call.open_stream")
	var st gsi.Stream
	var err error
	if striped {
		st, err = w.clients[c.id].OpenStripedStream(octx, w.ep.Addr(), bulkOp, gsi.WithStripes(w.stripes))
	} else {
		st, err = w.clients[c.id].OpenStream(octx, w.ep.Addr(), bulkOp)
	}
	sp.End()
	if err != nil {
		return err
	}
	err = w.sendAndCheck(ctx, c, root, st)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return err
}

func (w *bulk) sendAndCheck(ctx context.Context, c *client, root *trace.Span, st gsi.Stream) error {
	_, sp := c.span(ctx, root, "call.stream_write")
	_, err := st.Write(w.data)
	if err == nil {
		err = st.CloseWrite()
	}
	sp.End()
	if err != nil {
		return err
	}
	_, sp = c.span(ctx, root, "call.stream_reply")
	reply, err := io.ReadAll(st)
	sp.End()
	if err != nil {
		return err
	}
	if len(reply) != 12 {
		return fatal("stream reply is %d bytes, want 12", len(reply))
	}
	n, sum := binary.BigEndian.Uint64(reply[:8]), binary.BigEndian.Uint32(reply[8:])
	if n != bulkSize || sum != w.digest {
		return fatal("stream transfer arrived as %d bytes crc32c %08x, sent %d bytes crc32c %08x", n, sum, bulkSize, w.digest)
	}
	return nil
}

// checkStored compares what the GridFTP store holds with what was sent,
// then deletes it so stored copies do not pile up.
func (w *bulk) checkStored(c *client) error {
	id := w.creds[c.id].Identity()
	got, err := w.store.Open(id, w.path(c))
	if err != nil {
		return err
	}
	if len(got) != bulkSize || crc32.Checksum(got, castagnoli) != w.digest {
		return fatal("gridftp stored %d bytes crc32c %08x, sent %d bytes crc32c %08x", len(got), crc32.Checksum(got, castagnoli), bulkSize, w.digest)
	}
	return w.store.Delete(id, w.path(c))
}

func (w *bulk) counters() counters {
	c := counters{}
	for _, p := range w.pools {
		st := p.Stats()
		c[cPoolHits] += float64(st.Hits)
		c[cPoolDials] += float64(st.Dials)
	}
	cs := w.server.AuthorizationPipeline().CacheStats()
	c[cAuthzHits], c[cAuthzMisses] = float64(cs.Hits), float64(cs.Misses)
	vs := w.g.env.ChainCacheStats()
	c[cVerifyHits], c[cVerifyMisses] = float64(vs.Hits), float64(vs.Misses)
	return c
}

func (w *bulk) ladder(ctx context.Context) (map[string]float64, error) {
	cold, err := w.g.users("/O=Bench/OU=bulk/CN=cold %d", 32)
	if err != nil {
		return nil, err
	}
	return runLadder(ctx, ladderConfig{
		env: w.g.env, user: w.creds[0], host: w.g.host, msgSize: record.DefaultChunkSize,
		pipeline: w.server.AuthorizationPipeline(), resource: exchangeResource, action: bulkOp,
		cold: cold,
	})
}

func (w *bulk) close() {
	for _, fc := range w.ftps {
		fc.Close()
	}
	for _, p := range w.pools {
		p.Close()
	}
	if w.ftp != nil {
		w.ftp.Close()
	}
	if w.ep != nil {
		w.ep.Close()
	}
}

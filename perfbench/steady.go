package main

import (
	"context"

	"repro/internal/trace"
	"repro/pkg/gsi"
)

var steadySpec = spec{
	why:      "per-message path on long-lived pooled GT2 sessions; every decision a cache hit after warm-up",
	warmOps:  2000,
	segments: 16,
	build:    buildSteady,
}

// steadyOps is the small fixed op set: after warm-up every (client,
// op) decision is in the decision cache.
var steadyOps = []string{"steady.read", "steady.write", "steady.stat", "steady.list"}

const steadyMsgSize = 256

type steady struct {
	b        *buildEnv
	g        *grid
	server   *gsi.Server
	ep       gsi.Endpoint
	pools    []*gsi.SessionPool
	clients  []*gsi.Client
	creds    []*gsi.Credential
	payloads [][][]byte
}

func buildSteady(ctx context.Context, b *buildEnv) (workload, error) {
	g, err := newGrid("steady")
	if err != nil {
		return nil, err
	}
	w := &steady{b: b, g: g}
	if w.creds, err = g.users("/O=Bench/OU=steady/CN=user %d", b.clients); err != nil {
		return nil, err
	}
	policy := gsi.NewPolicy(gsi.Rule{
		ID:        "steady-users",
		Effect:    gsi.EffectPermit,
		Subjects:  identities(w.creds),
		Resources: []string{exchangeResource},
		Actions:   steadyOps,
	})
	opts := append([]gsi.Option{gsi.WithLocalPolicy(policy)}, traceOpts(b)...)
	if w.server, err = g.env.NewServer(g.host, opts...); err != nil {
		return nil, err
	}
	hookServer(b, w.server)
	if w.ep, err = w.server.Serve(ctx, "127.0.0.1:0", echo); err != nil {
		return nil, err
	}
	for i, cred := range w.creds {
		pool, err := gsi.NewSessionPool()
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
		w.payloads = append(w.payloads, payloads(b.cfg.Seed, uint64(i), 16, steadyMsgSize))
	}
	return w, nil
}

// op checks a pooled session out, exchanges one seeded 256-byte
// message, checks the echo, and returns the session to the pool.
func (w *steady) op(ctx context.Context, c *client) error {
	ctx, cancel := opCtx(ctx)
	defer cancel()
	op := steadyOps[c.rng.IntN(len(steadyOps))]
	body := w.payloads[c.id][c.rng.IntN(len(w.payloads[c.id]))]
	ctx, root := c.span(ctx, nil, "op.exchange")
	defer root.End()
	return pooledExchange(ctx, c, root, w.clients[c.id], w.ep.Addr(), op, body)
}

// pooledExchange is one exchange through a pooled client, with a
// benchmark span around each call into the facade.
func pooledExchange(ctx context.Context, c *client, root *trace.Span, cl *gsi.Client, addr, op string, body []byte) error {
	sctx, sp := c.span(ctx, root, "call.connect")
	sess, err := cl.Connect(sctx, addr)
	sp.End()
	if err != nil {
		return err
	}
	xctx, sp := c.span(ctx, root, "call.exchange")
	out, err := sess.Exchange(xctx, op, body)
	sp.End()
	_, sp = c.span(ctx, root, "call.close")
	cerr := sess.Close()
	sp.End()
	if err != nil {
		return err
	}
	if err := checkEcho(op, body, out); err != nil {
		return err
	}
	return cerr
}

func (w *steady) counters() counters {
	c := counters{}
	for _, p := range w.pools {
		st := p.Stats()
		c[cPoolHits] += float64(st.Hits)
		c[cPoolDials] += float64(st.Dials)
		rs := p.ResumptionStats()
		c[cResumeHits] += float64(rs.Hits)
		c[cResumeMisses] += float64(rs.Misses)
	}
	cs := w.server.AuthorizationPipeline().CacheStats()
	c[cAuthzHits], c[cAuthzMisses] = float64(cs.Hits), float64(cs.Misses)
	vs := w.g.env.ChainCacheStats()
	c[cVerifyHits], c[cVerifyMisses] = float64(vs.Hits), float64(vs.Misses)
	return c
}

func (w *steady) ladder(ctx context.Context) (map[string]float64, error) {
	cold, err := w.g.users("/O=Bench/OU=steady/CN=cold %d", 32)
	if err != nil {
		return nil, err
	}
	return runLadder(ctx, ladderConfig{
		env: w.g.env, user: w.creds[0], host: w.g.host, msgSize: steadyMsgSize,
		pipeline: w.server.AuthorizationPipeline(), resource: exchangeResource, action: steadyOps[0],
		cold: cold,
	})
}

func (w *steady) close() {
	for _, p := range w.pools {
		p.Close()
	}
	if w.ep != nil {
		w.ep.Close()
	}
}

func identities(creds []*gsi.Credential) []string {
	out := make([]string, len(creds))
	for i, c := range creds {
		out[i] = c.Identity().String()
	}
	return out
}

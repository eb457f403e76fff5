package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/pkg/gsi"
)

var churnSpec = spec{
	why:      "many short jobs from many users: fresh GT2/GT3 handshakes, chain verification and cold decisions",
	warmOps:  16,
	segments: 16,
	build:    buildChurn,
}

const (
	churnUsers       = 1024 // more than the 256-entry chain-verify cache, far fewer than the decision cache
	churnOps         = 16
	churnCallsPerJob = 4
	churnDenyPercent = 10
	churnZipfS       = 1.1
)

type churn struct {
	b      *buildEnv
	g      *grid
	server *gsi.Server
	eps    [2]gsi.Endpoint // GT2, GT3
	users  []*gsi.Credential
	ops    []string
	denied [][]bool // [user][op]: the policy must refuse it
	bodies [][]byte
	zipfs  []*rand.Zipf // per client: which user runs the next job
}

func buildChurn(ctx context.Context, b *buildEnv) (workload, error) {
	g, err := newGrid("churn")
	if err != nil {
		return nil, err
	}
	w := &churn{b: b, g: g}
	if w.users, err = g.users("/O=Bench/OU=churn/CN=user %04d", churnUsers); err != nil {
		return nil, err
	}
	for k := 0; k < churnOps; k++ {
		w.ops = append(w.ops, fmt.Sprintf("job.op%02d", k))
	}
	// About one (user, op) pair in ten is refused by policy: one
	// permit-all rule plus, per op, a deny rule naming the refused
	// users (deny overrides).
	pick := rand.New(rand.NewPCG(b.cfg.Seed, 0xdea1))
	w.denied = make([][]bool, churnUsers)
	denyLists := make([][]string, churnOps)
	for u := range w.denied {
		w.denied[u] = make([]bool, churnOps)
		for k := range w.denied[u] {
			if pick.IntN(100) < churnDenyPercent {
				w.denied[u][k] = true
				denyLists[k] = append(denyLists[k], w.users[u].Identity().String())
			}
		}
	}
	policy := gsi.NewPolicy(gsi.Rule{
		ID: "churn-all", Effect: gsi.EffectPermit, Subjects: []string{"*"},
		Resources: []string{exchangeResource}, Actions: w.ops,
	})
	for k, dns := range denyLists {
		if len(dns) == 0 {
			continue
		}
		policy.Add(gsi.Rule{
			ID: "churn-deny-" + w.ops[k], Effect: gsi.EffectDeny, Subjects: dns,
			Resources: []string{exchangeResource}, Actions: []string{w.ops[k]},
		})
	}
	w.bodies = payloads(b.cfg.Seed, 0xb0d1, 64, 256)
	opts := append([]gsi.Option{gsi.WithLocalPolicy(policy)}, traceOpts(b)...)
	if w.server, err = g.env.NewServer(g.host, opts...); err != nil {
		return nil, err
	}
	hookServer(b, w.server)
	if w.eps[0], err = w.server.Serve(ctx, "127.0.0.1:0", echo, gsi.WithTransport(gsi.TransportGT2())); err != nil {
		return nil, err
	}
	if w.eps[1], err = w.server.Serve(ctx, "127.0.0.1:0", echo, gsi.WithTransport(gsi.TransportGT3())); err != nil {
		w.close()
		return nil, err
	}
	for i := 0; i < b.clients; i++ {
		r := rand.New(rand.NewPCG(b.cfg.Seed, 0x21bf+uint64(i)))
		w.zipfs = append(w.zipfs, rand.NewZipf(r, churnZipfS, 1, churnUsers-1))
	}
	return w, nil
}

// op is one job: a fresh Client for a Zipf-drawn user connects over
// GT2 or GT3 (even odds), makes four exchanges on seeded ops, checks
// each answer against the policy's expectation, and closes.
func (w *churn) op(ctx context.Context, c *client) error {
	ctx, cancel := opCtx(ctx)
	defer cancel()
	u := int(w.zipfs[c.id].Uint64())
	tr, ep := gsi.TransportGT2(), w.eps[0]
	if c.rng.IntN(2) == 1 {
		tr, ep = gsi.TransportGT3(), w.eps[1]
	}
	ctx, root := c.span(ctx, nil, "op.job")
	defer root.End()

	t0 := time.Now()
	cl, err := w.g.env.NewClient(w.users[u], append([]gsi.Option{gsi.WithTransport(tr)}, traceOpts(w.b)...)...)
	if err != nil {
		return err
	}
	hookClient(w.b, cl, c.id)
	sctx, sp := c.span(ctx, root, "call.connect")
	sess, err := cl.Connect(sctx, ep.Addr())
	sp.End()
	if err != nil {
		return err
	}
	defer func() {
		_, sp := c.span(ctx, root, "call.close")
		sess.Close()
		sp.End()
	}()
	connected := false
	var wrongDeny error
	for i := 0; i < churnCallsPerJob; i++ {
		k := c.rng.IntN(churnOps)
		body := w.bodies[c.rng.IntN(len(w.bodies))]
		xctx, sp := c.span(ctx, root, "call.exchange")
		out, err := sess.Exchange(xctx, w.ops[k], body)
		sp.End()
		switch {
		case w.denied[u][k] && err == nil:
			return fatal("fail-open: %s was permitted %s, which policy denies", w.users[u].Identity(), w.ops[k])
		case w.denied[u][k] && errors.Is(err, gsi.ErrUnauthorized):
			continue // the expected deny
		case errors.Is(err, gsi.ErrUnauthorized):
			if wrongDeny == nil {
				wrongDeny = fmt.Errorf("wrong deny: %s %s: %w", w.users[u].Identity(), w.ops[k], err)
			}
			continue
		case err != nil:
			return err
		}
		if err := checkEcho(w.ops[k], body, out); err != nil {
			return err
		}
		if !connected {
			connected = true
			c.sample("connect", ms(time.Since(t0)))
		}
	}
	return wrongDeny
}

func (w *churn) counters() counters {
	c := counters{}
	cs := w.server.AuthorizationPipeline().CacheStats()
	c[cAuthzHits], c[cAuthzMisses] = float64(cs.Hits), float64(cs.Misses)
	vs := w.g.env.ChainCacheStats()
	c[cVerifyHits], c[cVerifyMisses] = float64(vs.Hits), float64(vs.Misses)
	return c
}

func (w *churn) ladder(ctx context.Context) (map[string]float64, error) {
	cold, err := w.g.users("/O=Bench/OU=churn/CN=cold %d", 32)
	if err != nil {
		return nil, err
	}
	// A user permitted the first op, for the cached-decision rung.
	u := 0
	for w.denied[u][0] {
		u++
	}
	return runLadder(ctx, ladderConfig{
		env: w.g.env, user: w.users[u], host: w.g.host, msgSize: len(w.bodies[0]),
		pipeline: w.server.AuthorizationPipeline(), resource: exchangeResource, action: w.ops[0],
		cold: cold,
	})
}

func (w *churn) close() {
	for _, ep := range w.eps {
		if ep != nil {
			ep.Close()
		}
	}
}

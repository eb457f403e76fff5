package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/ogsa"
	"repro/internal/trace"
	"repro/pkg/gsi"
)

var durableSpec = spec{
	why:      "trust-plane writes beside reads: fsynced WAL, audit chain and CAS delta sync under pooled exchanges",
	warmOps:  200,
	segments: 16,
	build:    buildDurable,
}

const (
	durableMembersPerClient = 4
	durableCandidates       = 16 // admission ring; at most half are admitted at once
	durableMaxTemp          = 4  // outstanding mutations per client before it removes one
	voGroup                 = "dt"
)

var durableOps = []string{"dt.read", "dt.write", "dt.stat", "dt.list"}

type durable struct {
	b         *buildEnv
	g         *grid
	vo        *gsi.CASServer
	publisher *gsi.Server
	pubEP     gsi.Endpoint
	server    *gsi.Server
	ep        gsi.Endpoint // GT2 exchanges
	adminEP   gsi.Endpoint // GT3 admin surface
	ds        *gsi.DurableState
	admin     *gsi.Client
	members   [][]*gsi.Client // per client: pooled clients, one per member
	pools     []*gsi.SessionPool
	bodies    [][]byte

	// temp holds each client's outstanding mutations, oldest first.
	temp [][]mutation
	seq  []int

	admitMu  sync.Mutex
	cands    []*gsi.Credential
	admitted []int // candidate indexes, oldest first
	idle     []int
}

type mutation struct {
	rule bool // a policy rule, else a gridmap entry
	id   string
}

func buildDurable(ctx context.Context, b *buildEnv) (workload, error) {
	g, err := newGrid("durable")
	if err != nil {
		return nil, err
	}
	w := &durable{b: b, g: g, temp: make([][]mutation, b.clients), seq: make([]int, b.clients)}
	voCred, err := g.ca.NewEntity(gsi.MustParseName("/O=Bench/CN=Bench VO CAS"), 12*time.Hour)
	if err != nil {
		return nil, err
	}
	w.vo = gsi.NewCASServer(voCred)
	w.vo.AddPolicy(gsi.Rule{
		ID: "vo-dt", Effect: gsi.EffectPermit, Groups: []string{voGroup},
		Resources: []string{exchangeResource}, Actions: durableOps,
	})
	memberCreds, err := g.users("/O=Bench/OU=durable/CN=member %d", b.clients*durableMembersPerClient)
	if err != nil {
		return nil, err
	}
	for _, m := range memberCreds {
		w.vo.AddMember(m.Identity(), voGroup)
	}
	if w.cands, err = g.users("/O=Bench/OU=durable/CN=candidate %d", durableCandidates); err != nil {
		return nil, err
	}
	for i := range w.cands {
		w.idle = append(w.idle, i)
	}
	operator, err := g.user("/O=Bench/CN=operator")
	if err != nil {
		return nil, err
	}
	rsCred, err := g.ca.NewHostEntity(gsi.MustParseName("/O=Bench/CN=host durable rs"), 12*time.Hour)
	if err != nil {
		return nil, err
	}

	// The community server's bundle feed, readable by the resource
	// server only.
	if w.publisher, err = g.env.NewServer(g.host,
		gsi.WithTransport(gsi.TransportGT3()),
		gsi.WithCASPublisher(w.vo),
		gsi.WithLocalPolicy(gsi.NewPolicy(gsi.Rule{
			ID: "bundle-readers", Effect: gsi.EffectPermit, Subjects: []string{rsCred.Identity().String()},
			Resources: []string{"ogsa:gsi.__cas.sync"}, Actions: []string{"*"},
		}))); err != nil {
		return nil, err
	}
	if w.pubEP, err = w.publisher.Serve(ctx, "127.0.0.1:0", echo); err != nil {
		return nil, err
	}

	// The resource server with the shipped durable defaults: every
	// append fsynced, every decision audited. Bundles are pulled only
	// when the workload forces it.
	opts := append([]gsi.Option{
		gsi.WithDurableState(b.dir),
		gsi.WithCASUpstream(gsi.CASUpstreamConfig{Endpoints: []string{w.pubEP.Addr()}, Cert: w.vo.Certificate(), Interval: time.Hour}),
	}, traceOpts(b)...)
	if w.server, err = g.env.NewServer(rsCred, opts...); err != nil {
		w.close()
		return nil, err
	}
	hookServer(b, w.server)
	if w.ep, err = w.server.Serve(ctx, "127.0.0.1:0", echo); err != nil {
		w.close()
		return nil, err
	}
	if w.adminEP, err = w.server.Serve(ctx, "127.0.0.1:0", echo, gsi.WithTransport(gsi.TransportGT3()), gsi.WithAdmin()); err != nil {
		w.close()
		return nil, err
	}
	w.ds = w.server.DurableState()
	if err := w.ds.Policy().AddChecked(
		gsi.Rule{ID: "local-dt", Effect: gsi.EffectPermit, Groups: []string{voGroup}, Resources: []string{exchangeResource}, Actions: durableOps},
		gsi.Rule{ID: "operator", Effect: gsi.EffectPermit, Subjects: []string{operator.Identity().String()}, Resources: []string{"ogsa:" + ogsa.AdminHandle}, Actions: []string{"*"}},
	); err != nil {
		w.close()
		return nil, err
	}
	for i, cred := range append(append([]*gsi.Credential{operator}, memberCreds...), w.cands...) {
		if err := w.ds.GridMap().AddChecked(cred.Identity(), fmt.Sprintf("grid%03d", i)); err != nil {
			w.close()
			return nil, err
		}
	}
	if w.admin, err = g.env.NewClient(operator, gsi.WithTransport(gsi.TransportGT3())); err != nil {
		w.close()
		return nil, err
	}
	if _, err := w.forceSync(ctx, w.vo.Version()); err != nil {
		w.close()
		return nil, err
	}

	w.bodies = payloads(b.cfg.Seed, 0xd0b1, 16, 256)
	for i := 0; i < b.clients; i++ {
		pool, err := gsi.NewSessionPool()
		if err != nil {
			w.close()
			return nil, err
		}
		w.pools = append(w.pools, pool)
		var cls []*gsi.Client
		for _, cred := range memberCreds[i*durableMembersPerClient : (i+1)*durableMembersPerClient] {
			cl, err := g.env.NewClient(cred, append([]gsi.Option{gsi.WithSessionPool(pool)}, traceOpts(b)...)...)
			if err != nil {
				w.close()
				return nil, err
			}
			hookClient(b, cl, i)
			cls = append(cls, cl)
		}
		w.members = append(w.members, cls)
	}
	return w, nil
}

// op is one draw of the mix: 97.5% pooled exchanges as a VO member, 2%
// durable policy or gridmap mutations, 0.5% VO admissions. Admissions
// take milliseconds; at 1% they would sit exactly at p99 and make the
// tail flip between two populations from run to run, so they are kept
// rare enough that op_tail_ms stays with the exchanges that decide
// cold after a mutation.
func (w *durable) op(ctx context.Context, c *client) error {
	ctx, cancel := opCtx(ctx)
	defer cancel()
	switch r := c.rng.IntN(1000); {
	case r < 975:
		cl := w.members[c.id][c.rng.IntN(durableMembersPerClient)]
		op := durableOps[c.rng.IntN(len(durableOps))]
		body := w.bodies[c.rng.IntN(len(w.bodies))]
		ctx, root := c.span(ctx, nil, "op.exchange")
		defer root.End()
		return pooledExchange(ctx, c, root, cl, w.ep.Addr(), op, body)
	case r < 995:
		ctx, root := c.span(ctx, nil, "op.mutate")
		defer root.End()
		return w.mutate(ctx, c, root)
	default:
		ctx, root := c.span(ctx, nil, "op.admit")
		defer root.End()
		return w.admit(ctx, c, root)
	}
}

// mutate adds a policy rule or gridmap entry that matches nothing the
// workload asks, or removes the client's oldest; either bumps a
// generation and so invalidates every cached decision. The sample is
// the time until the mutation is acknowledged as durable.
func (w *durable) mutate(ctx context.Context, c *client, root *trace.Span) error {
	_, sp := c.span(ctx, root, "call.mutate")
	defer sp.End()
	t0 := time.Now()
	var err error
	if q := w.temp[c.id]; len(q) >= durableMaxTemp {
		m := q[0]
		w.temp[c.id] = q[1:]
		if m.rule {
			var ok bool
			ok, err = w.ds.Policy().RemoveChecked(m.id)
			if err == nil && !ok {
				err = fmt.Errorf("rule %s was not in the policy", m.id)
			}
		} else {
			err = w.ds.GridMap().RemoveChecked(gsi.MustParseName(m.id))
		}
	} else {
		w.seq[c.id]++
		m := mutation{rule: c.rng.IntN(2) == 0}
		if m.rule {
			m.id = fmt.Sprintf("temp-%d-%d", c.id, w.seq[c.id])
			err = w.ds.Policy().AddChecked(gsi.Rule{
				ID: m.id, Effect: gsi.EffectPermit, Subjects: []string{"/O=Elsewhere/CN=nobody"},
				Resources: []string{"data:/elsewhere/*"}, Actions: []string{"read"},
			})
		} else {
			m.id = fmt.Sprintf("/O=Elsewhere/CN=temp %d %d", c.id, w.seq[c.id])
			err = w.ds.GridMap().AddChecked(gsi.MustParseName(m.id), "temp")
		}
		if err == nil {
			w.temp[c.id] = append(w.temp[c.id], m)
		}
	}
	if err != nil {
		return fmt.Errorf("durable mutation: %w", err)
	}
	c.sample("mutation", ms(time.Since(t0)))
	return nil
}

// admit admits the next candidate to the VO — retiring the oldest
// admitted one once half the ring is in — forces the resource server
// to pull, and checks from fresh clients that the replica now permits
// the new member and refuses the retired one.
func (w *durable) admit(ctx context.Context, c *client, root *trace.Span) error {
	w.admitMu.Lock()
	defer w.admitMu.Unlock()
	retired := -1
	if len(w.admitted) >= durableCandidates/2 {
		retired, w.admitted = w.admitted[0], w.admitted[1:]
		w.vo.RemoveMember(w.cands[retired].Identity())
		w.idle = append(w.idle, retired)
	}
	cand := w.idle[0]
	w.idle = w.idle[1:]
	t0 := time.Now()
	w.vo.AddMember(w.cands[cand].Identity(), voGroup)
	w.admitted = append(w.admitted, cand)
	sctx, sp := c.span(ctx, root, "call.cas_sync")
	_, err := w.forceSync(sctx, w.vo.Version())
	sp.End()
	if err != nil {
		return err
	}
	c.sample("catchup", ms(time.Since(t0)))

	op := durableOps[c.rng.IntN(len(durableOps))]
	body := w.bodies[c.rng.IntN(len(w.bodies))]
	t1 := time.Now()
	if err := w.freshExchange(ctx, c, root, w.cands[cand], op, body); err != nil {
		if errors.Is(err, gsi.ErrUnauthorized) {
			return fmt.Errorf("wrong deny: admitted member %s: %w", w.cands[cand].Identity(), err)
		}
		return err
	}
	c.sample("connect", ms(time.Since(t1)))
	if retired >= 0 {
		err := w.freshExchange(ctx, c, root, w.cands[retired], op, body)
		switch {
		case err == nil:
			return fatal("fail-open: retired member %s was permitted %s", w.cands[retired].Identity(), op)
		case !errors.Is(err, gsi.ErrUnauthorized):
			return err
		}
	}
	return nil
}

// freshExchange connects as cred with a new, unpooled client and makes
// one exchange.
func (w *durable) freshExchange(ctx context.Context, c *client, root *trace.Span, cred *gsi.Credential, op string, body []byte) error {
	cl, err := w.g.env.NewClient(cred, traceOpts(w.b)...)
	if err != nil {
		return err
	}
	hookClient(w.b, cl, c.id)
	sctx, sp := c.span(ctx, root, "call.connect")
	sess, err := cl.Connect(sctx, w.ep.Addr())
	sp.End()
	if err != nil {
		return err
	}
	defer sess.Close()
	xctx, sp := c.span(ctx, root, "call.exchange")
	out, err := sess.Exchange(xctx, op, body)
	sp.End()
	if err != nil {
		return err
	}
	return checkEcho(op, body, out)
}

// forceSync runs the admin cas-sync op and checks that the replica
// reached version want.
func (w *durable) forceSync(ctx context.Context, want uint64) (gsi.CASSyncStatus, error) {
	out, _, err := w.admin.Invoke(ctx, w.adminEP.Addr(), ogsa.AdminHandle, ogsa.AdminOpCASSync, nil)
	if err != nil {
		return gsi.CASSyncStatus{}, fmt.Errorf("cas-sync: %w", err)
	}
	var rep struct {
		OK    bool   `json:"ok"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		return gsi.CASSyncStatus{}, fmt.Errorf("cas-sync reply: %w", err)
	}
	st := w.server.CASSyncStatus()
	if !rep.OK || st.Version < want {
		return st, fmt.Errorf("cas-sync left the replica at version %d, want %d: %s", st.Version, want, rep.Error)
	}
	return st, nil
}

func (w *durable) counters() counters {
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
	js := w.ds.JournalStats()
	c[cWALRecords], c[cWALBytes] = float64(js.LastSeq), float64(js.BytesSinceSnapshot)
	c[cAuditEvents] = float64(w.ds.Audit().Len())
	ss := w.server.CASSyncStatus()
	c[cCASDelta], c[cCASFull] = float64(ss.DeltaSyncs), float64(ss.FullSyncs)
	c[cCASBytes] = float64(ss.DeltaBytes + ss.FullBytes)
	return c
}

func (w *durable) ladder(ctx context.Context) (map[string]float64, error) {
	cold, err := w.g.users("/O=Bench/OU=durable/CN=cold %d", 32)
	if err != nil {
		return nil, err
	}
	return runLadder(ctx, ladderConfig{
		env: w.g.env, user: w.members[0][0].Credential(), host: w.g.host, msgSize: len(w.bodies[0]),
		pipeline: w.server.AuthorizationPipeline(), resource: exchangeResource, action: durableOps[0],
		cold: cold,
	})
}

func (w *durable) close() {
	for _, p := range w.pools {
		p.Close()
	}
	for _, ep := range []gsi.Endpoint{w.adminEP, w.ep, w.pubEP} {
		if ep != nil {
			ep.Close()
		}
	}
	if w.ds != nil {
		w.ds.Close()
	}
}

package gsi

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gridcrypto"
	"repro/internal/gsitransport"
	"repro/internal/record"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Striped streams: one logical byte stream fanned over K secured GT2
// sessions, the facade form of GridFTP's parallel stripes. Each stripe
// is an ordinary pooled session — the handshake amortization of the
// pool applies per stripe — and each stripe seals/opens on its own
// connection, so K stripes drive up to K cores through the record
// layer. The data plane is internal/gsitransport's StripedWriter and
// StripedReader: globally sequenced DATA chunks dealt round-robin, and
// a FIN trailer carrying the total chunk count on every stripe, so a
// stripe that dies mid-flight is always an error, never a silently
// truncated transfer.

// stripedOpenOp binds one session into a striped stream. Its body
// carries (op, group id, stripe index, stripe count); the server
// authorizes op per stripe and collects the group's connections until
// all count stripes arrived, then runs the StreamHandler over them.
const stripedOpenOp = reservedOpPrefix + "stream.sopen"

// maxStripes bounds the stripe count a client may request and a server
// will grant.
const maxStripes = 16

// stripeJoinTimeout bounds how long a server-side stripe waits for the
// rest of its group: a client that dies between opens must not park
// serve goroutines forever.
const stripeJoinTimeout = 10 * time.Second

// maxStripeGroups bounds concurrently forming groups per endpoint so a
// hostile peer cannot park unbounded serve goroutines.
const maxStripeGroups = 256

// OpenStripedStream opens a stream for op fanned over the WithStripes
// stripe count: it checks that many sessions out (from the pool on a
// pooling client), binds them into one group on the server, and
// returns a Stream whose bytes travel over all stripes in parallel.
// With a stripe count of 1 (or none configured) it is exactly
// OpenStream. Striping requires the GT2 transport — GT3 carries chunks
// as calls and has no connection to stripe over.
func (c *Client) OpenStripedStream(ctx context.Context, endpoint, op string, opts ...Option) (Stream, error) {
	const opName = "gsi.Client.OpenStripedStream"
	_, cancelSkew, s, err := c.resolve(ctx, opts)
	cancelSkew() // settings only; session I/O budgets its own deadlines
	if err != nil {
		return nil, opErr(opName, err)
	}
	if s.stripes <= 1 {
		return c.OpenStream(ctx, endpoint, op, opts...)
	}
	if op == "" || strings.HasPrefix(op, reservedOpPrefix) {
		return nil, opErr(opName, fmt.Errorf("gsi: invalid stream op %q", op))
	}
	if s.transport.String() != "gt2" {
		return nil, opErr(opName, fmt.Errorf("%w: striping requires the GT2 transport", errStreamsUnsupported))
	}
	group, err := gridcrypto.RandomBytes(16)
	if err != nil {
		return nil, opErr(opName, err)
	}
	k := s.stripes
	// One root span covers the whole transfer; each stripe gets a lane
	// child whose context crosses on that stripe's open, so the server's
	// per-lane spans join the same trace.
	var (
		sp    *trace.Span
		lanes []*trace.Span
	)
	if tr := c.base.tracer; tr != nil {
		sp = tr.StartRoot("client.stream")
	}
	var (
		owners  []Session     // checkouts to release at Close
		members []*gt2Session // sessions locked and bound into the group
	)
	cleanup := func() {
		// Members are mid-group on the server: break their connections so
		// the server's group wait fails fast and the pool discards them
		// instead of parking half-open stripes.
		for _, m := range members {
			m.conn.Close()
			m.mu.Unlock()
		}
		for _, o := range owners {
			o.Close()
		}
		for _, lane := range lanes {
			lane.End()
		}
		sp.End()
	}
	for i := 0; i < k; i++ {
		lctx := ctx
		var lane *trace.Span
		if sp != nil {
			lane = sp.StartChild("client.stripe")
			lanes = append(lanes, lane)
			lctx = trace.ContextWithSpan(ctx, lane)
		}
		sess, err := c.Connect(lctx, endpoint, opts...)
		if err != nil {
			sp.SetError(err)
			cleanup()
			return nil, opErr(opName, err)
		}
		owners = append(owners, sess)
		g := gt2SessionOf(sess)
		if g == nil {
			err := fmt.Errorf("%w: striping requires GT2 sessions", errStreamsUnsupported)
			sp.SetError(err)
			cleanup()
			return nil, opErr(opName, err)
		}
		lane.SetPeer(peerDNOf(g.conn.Peer()))
		body := wire.NewEncoder().Str(op).Bytes(group).U32(uint32(i)).U32(uint32(k)).Finish()
		g.mu.Lock()
		payload, buf, err := g.roundTrip(lctx, stripedOpenOp, body)
		if err != nil {
			g.mu.Unlock()
			sp.SetError(err)
			cleanup()
			return nil, opErr(opName, err)
		}
		_ = payload
		buf.Free()
		members = append(members, g)
	}
	conns := make([]*gsitransport.Conn, k)
	for i, m := range members {
		conns[i] = m.conn
	}
	var out Stream = &gt2StripedStream{
		members: members,
		owners:  owners,
		w:       gsitransport.NewStripedWriter(ctx, conns),
		r:       gsitransport.NewStripedReader(ctx, conns, 0),
		peer:    members[0].conn.Peer(),
	}
	if sp != nil {
		dn := peerDNOf(members[0].conn.Peer())
		sp.SetPeer(dn)
		ts := newTracedStream(out, sp, "client")
		ts.lanes = lanes
		ts.xfer = c.base.tracer.Transfers().Begin("sopen:"+op, dn, k, sp.Context().TraceID)
		out = ts
	}
	return out, nil
}

// gt2SessionOf unwraps a facade Session to the GT2 session holding the
// transport connection, through any pool wrapper.
func gt2SessionOf(s Session) *gt2Session {
	for {
		switch v := s.(type) {
		case *gt2Session:
			return v
		case *pooledSession:
			s = v.sess
		default:
			return nil
		}
	}
}

// gt2StripedStream is the client-side striped Stream: K locked
// sessions, a striped writer/reader pair over their connections, and a
// Close that resynchronizes every stripe before releasing the
// checkouts (so a pooling client parks only clean connections).
type gt2StripedStream struct {
	members []*gt2Session
	owners  []Session
	w       *gsitransport.StripedWriter
	r       *gsitransport.StripedReader
	peer    Peer
	closed  atomic.Bool
}

func (g *gt2StripedStream) Read(p []byte) (int, error) {
	n, err := g.r.Read(p)
	return n, streamErr(err)
}

func (g *gt2StripedStream) Write(p []byte) (int, error) {
	n, err := g.w.Write(p)
	return n, streamErr(err)
}

func (g *gt2StripedStream) CloseWrite() error { return streamErr(g.w.Close()) }

func (g *gt2StripedStream) Peer() Peer { return g.peer }

// Close terminates both halves — FIN trailer on every stripe if the
// write half is still open, read half consumed to completion — and
// releases every session. A stripe that cannot resynchronize leaves
// its connection broken, which the pool observes at release.
func (g *gt2StripedStream) Close() error {
	if g.closed.Swap(true) {
		return nil
	}
	firstErr := g.w.Close()
	if err := drainStriped(g.r); err != nil {
		var peerErr *record.PeerError
		if !errors.As(err, &peerErr) {
			if firstErr == nil {
				firstErr = err
			}
			g.r.Abort()
		} else {
			g.r.Join()
		}
	} else {
		g.r.Join()
	}
	for _, m := range g.members {
		m.mu.Unlock()
	}
	for _, o := range g.owners {
		if err := o.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return streamErr(firstErr)
}

// drainStriped consumes a striped reader to its clean end. A peer
// abort (ERROR record) returns the *record.PeerError with every
// stripe already resynchronized.
func drainStriped(r *gsitransport.StripedReader) error {
	var scratch [4096]byte
	for {
		_, err := r.Read(scratch[:])
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// serverStripedStream is the handler-facing Stream of a striped group.
// Termination and drain are owned by the group runner, so Close only
// flushes the write half (mirroring serverGT2Stream).
type serverStripedStream struct {
	w    *gsitransport.StripedWriter
	r    *gsitransport.StripedReader
	peer Peer
}

func (s *serverStripedStream) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	return n, streamErr(err)
}

func (s *serverStripedStream) Write(p []byte) (int, error) {
	n, err := s.w.Write(p)
	return n, streamErr(err)
}

func (s *serverStripedStream) CloseWrite() error { return streamErr(s.w.Close()) }
func (s *serverStripedStream) Close() error      { return streamErr(s.w.Close()) }
func (s *serverStripedStream) Peer() Peer        { return s.peer }

// --- server-side stripe group registry ----------------------------------

// stripeGroupKey binds a forming group to the authenticated peer that
// opens it: stripes under one group id must all arrive from the same
// identity.
type stripeGroupKey struct {
	peer string
	id   string
}

// stripeGroup is one striped stream forming (or running) on a server:
// connections indexed by stripe, collected until count arrive. started
// closes when the group is complete; done closes when the transfer —
// handler plus resynchronization — has finished and the connections
// belong to their serve loops again.
type stripeGroup struct {
	op      string
	peer    Peer
	count   int
	conns   []*gsitransport.Conn
	joined  int
	failed  bool
	started chan struct{}
	done    chan struct{}
}

// stripeGroups is the per-endpoint registry of forming groups, created
// by gt2Transport.Serve and shared by its connection goroutines.
type stripeGroups struct {
	mu sync.Mutex
	m  map[stripeGroupKey]*stripeGroup
}

func newStripeGroups() *stripeGroups {
	return &stripeGroups{m: make(map[stripeGroupKey]*stripeGroup)}
}

// join registers one stripe's connection under its group, creating the
// group on first arrival. The completing arrival is the group's runner
// (second return true); the group leaves the registry at that moment —
// its remaining lifecycle is carried by the started/done channels.
func (g *stripeGroups) join(key stripeGroupKey, idx, count int, conn *gsitransport.Conn, peer Peer, op string) (*stripeGroup, bool, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	grp := g.m[key]
	if grp == nil {
		if len(g.m) >= maxStripeGroups {
			return nil, false, errors.New("gsi: too many forming stripe groups")
		}
		grp = &stripeGroup{
			op:      op,
			peer:    peer,
			count:   count,
			conns:   make([]*gsitransport.Conn, count),
			started: make(chan struct{}),
			done:    make(chan struct{}),
		}
		g.m[key] = grp
	}
	switch {
	case grp.failed:
		return nil, false, errors.New("gsi: stripe group already failed")
	case count != grp.count:
		return nil, false, errors.New("gsi: stripe count disagrees within group")
	case op != grp.op:
		return nil, false, errors.New("gsi: stream op disagrees within group")
	case grp.conns[idx] != nil:
		return nil, false, errors.New("gsi: duplicate stripe index")
	}
	grp.conns[idx] = conn
	grp.joined++
	if grp.joined == grp.count {
		close(grp.started)
		delete(g.m, key)
		return grp, true, nil
	}
	return grp, false, nil
}

// abandon fails a group whose remaining stripes never arrived. Reports
// false when the group completed concurrently — the caller's stripe is
// then part of a running transfer and must wait for done instead.
func (g *stripeGroups) abandon(key stripeGroupKey, grp *stripeGroup) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case <-grp.started:
		return false
	default:
	}
	grp.failed = true
	if g.m[key] == grp {
		delete(g.m, key)
	}
	return true
}

// serveGT2StripedOpen handles one gsi.__stream.sopen exchange: validate
// and authorize the carried op (per stripe — the decision cache makes
// repeats cheap), join the group, and either run the group's transfer
// (last arrival) or park until it finishes. Reports whether the
// connection is still usable for further exchanges.
func serveGT2StripedOpen(ctx context.Context, conn *gsitransport.Conn, cfg ServeConfig, peer Peer, groups *stripeGroups, body []byte, rbuf *record.Buf, sp *trace.Span) bool {
	bg := context.Background()
	d := wire.NewDecoder(body)
	op := d.Str()
	groupID := string(d.Bytes())
	idx := int(d.U32())
	count := int(d.U32())
	derr := d.Done()
	rbuf.Free()
	refuse := func(err error) {
		sp.SetError(err)
		sp.End()
	}
	if cfg.StreamHandler == nil {
		refuse(errors.New("no stream handler"))
		return sendGT2Reply(bg, conn, gt2StatusNotFound, []byte("gsi: endpoint does not accept streams")) == nil
	}
	if derr != nil || len(groupID) != 16 || count < 1 || count > maxStripes || idx < 0 || idx >= count {
		refuse(errors.New("malformed striped open"))
		return sendGT2Reply(bg, conn, gt2StatusNotFound, []byte("gsi: malformed striped open")) == nil
	}
	if op == "" || strings.HasPrefix(op, reservedOpPrefix) {
		refuse(errors.New("invalid stream op"))
		return sendGT2Reply(bg, conn, gt2StatusNotFound, []byte("gsi: invalid stream op "+op)) == nil
	}
	exPeer, authErr := cfg.authorizer.authorize(spanContext(ctx, sp), peer, exchangeResource, op)
	if authErr != nil {
		refuse(authErr)
		return sendGT2Reply(bg, conn, gt2Status(authErr), []byte(authErr.Error())) == nil
	}
	key := stripeGroupKey{peer: peerKey(peer), id: groupID}
	grp, runner, jerr := groups.join(key, idx, count, conn, exPeer, op)
	if jerr != nil {
		refuse(jerr)
		return sendGT2Reply(bg, conn, gt2StatusError, []byte(jerr.Error())) == nil
	}
	// From here the connection belongs to the group until done: even on
	// a failed reply it must not be closed out from under the transfer.
	replyErr := sendGT2Reply(bg, conn, gt2StatusOK, nil)
	if runner {
		runStripeGroup(ctx, cfg, grp, sp)
		sp.End()
		return replyErr == nil && !conn.Broken()
	}
	select {
	case <-grp.started:
	case <-time.After(stripeJoinTimeout):
		if groups.abandon(key, grp) {
			// The group never completed; this stripe was never handed to a
			// transfer, so the connection can simply die.
			refuse(errors.New("stripe group incomplete"))
			return false
		}
		// Lost the race with the completing join: fall through and wait.
	}
	<-grp.done
	sp.End()
	return replyErr == nil && !conn.Broken()
}

// runStripeGroup executes one striped stream on the completing
// arrival's goroutine: handler, terminal records on every stripe, then
// the client half consumed so all K connections resynchronize. The
// runner's lane span (when traced) parents a server.stream span
// covering the handler's whole transfer.
func runStripeGroup(ctx context.Context, cfg ServeConfig, grp *stripeGroup, sp *trace.Span) {
	defer close(grp.done)
	bg := context.Background() // conn-lifetime CloseOnDone carries cancellation
	w := gsitransport.NewStripedWriter(bg, grp.conns)
	r := gsitransport.NewStripedReader(bg, grp.conns, 0)
	var hstream Stream = &serverStripedStream{w: w, r: r, peer: grp.peer}
	var ts *tracedStream
	if sp != nil && cfg.Tracer != nil {
		gsp := sp.StartChild("server.stream")
		dn := peerDNOf(grp.peer)
		gsp.SetPeer(dn)
		ts = newTracedStream(hstream, gsp, "server")
		ts.xfer = cfg.Tracer.Transfers().Begin("sopen:"+grp.op, dn, grp.count, gsp.Context().TraceID)
		hstream = ts
	}
	herr := cfg.StreamHandler(ctx, grp.peer, grp.op, hstream)
	if ts != nil {
		ts.finish(herr)
	}
	var closeErr error
	if herr != nil {
		closeErr = w.CloseWithError(herr.Error())
	} else {
		closeErr = w.Close()
	}
	if closeErr != nil {
		r.Abort()
		return
	}
	if err := drainStriped(r); err != nil {
		var peerErr *record.PeerError
		if !errors.As(err, &peerErr) {
			r.Abort()
			return
		}
	}
	r.Join()
}

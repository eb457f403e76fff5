package gsi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"

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
// layer. Only the open differs from OpenStream's: both ends then run
// the same gt2Stream/runGT2Stream pair over gsitransport.Open, whose
// striped data plane deals globally sequenced DATA chunks round-robin
// and ends every stripe with a FIN trailer carrying the total chunk
// count, so a stripe that dies mid-flight is always an error, never a
// silently truncated transfer.

// stripedOpenOp binds one session into a striped stream; its body is a
// stripedOpen. The server authorizes the op on every stripe. Stripe 0
// opens a group of the K-1 other stripes in the endpoint's
// gsitransport.Rendezvous, and its OK reply carries the group token;
// stripes 1…K-1 join with that token. Once all joined, stripe 0 runs
// the StreamHandler over the K connections.
const stripedOpenOp = reservedOpPrefix + "stream.sopen"

// maxStripes bounds the stripe count a client may request and a server
// will grant.
const maxStripes = 16

// stripedOpen is a decoded stream.sopen body. Stripe 0 sends no token
// and n = the stripe count; stripes 1…K-1 send the token stripe 0
// received and n = their stripe index.
type stripedOpen struct {
	op    string
	token []byte
	n     int
}

func encodeStripedOpen(req stripedOpen) []byte {
	return wire.NewEncoder().Str(req.op).Bytes(req.token).U32(uint32(req.n)).Finish()
}

// decodeStripedOpen parses and validates a stream.sopen body.
func decodeStripedOpen(body []byte) (stripedOpen, error) {
	d := wire.NewDecoder(body)
	req := stripedOpen{op: d.Str(), token: d.Bytes(), n: int(d.U32())}
	opening := len(req.token) == 0
	switch {
	case d.Done() != nil,
		opening && (req.n < 2 || req.n > maxStripes),
		!opening && (len(req.token) != gsitransport.StripeTokenLen || req.n < 1 || req.n >= maxStripes):
		return stripedOpen{}, errors.New("gsi: malformed striped open")
	case req.op == "" || strings.HasPrefix(req.op, reservedOpPrefix):
		return stripedOpen{}, errors.New("gsi: invalid stream op " + req.op)
	}
	return req, nil
}

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
	fail := func(err error) (Stream, error) {
		sp.SetError(err)
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
		return nil, opErr(opName, err)
	}
	// Stripe 0 opens the group; the rest join with the token it got.
	req := stripedOpen{op: op, n: k}
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
			return fail(err)
		}
		owners = append(owners, sess)
		g := gt2SessionOf(sess)
		if g == nil {
			return fail(fmt.Errorf("%w: striping requires GT2 sessions", errStreamsUnsupported))
		}
		lane.SetPeer(peerDNOf(g.conn.Peer()))
		if i > 0 {
			req.n = i
		}
		g.mu.Lock()
		payload, buf, err := g.roundTrip(lctx, stripedOpenOp, encodeStripedOpen(req))
		if err != nil {
			g.mu.Unlock()
			return fail(err)
		}
		members = append(members, g)
		if i == 0 {
			req.token = bytes.Clone(payload)
		}
		buf.Free()
		if len(req.token) != gsitransport.StripeTokenLen {
			return fail(errors.New("gsi: malformed stripe group token"))
		}
	}
	st := newGT2Stream(ctx, members)
	st.owners = owners
	var out Stream = st
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

// serveGT2StripedOpen handles one gsi.__stream.sopen exchange: validate
// and authorize the carried op (per stripe — the decision cache makes
// repeats cheap), then open the group (stripe 0) or join it (stripes
// 1…K-1). Stripe 0 awaits the group and runs the transfer; a joined
// stripe parks until stripe 0 releases it. Reports whether the
// connection is still usable for further exchanges.
func serveGT2StripedOpen(ctx context.Context, conn *gsitransport.Conn, cfg ServeConfig, peer Peer, groups *gsitransport.Rendezvous, body []byte, rbuf *record.Buf, sp *trace.Span) bool {
	bg := context.Background()
	req, derr := decodeStripedOpen(body)
	rbuf.Free()
	refuse := func(status byte, err error) bool { return refuseStream(conn, sp, status, err) }
	if cfg.StreamHandler == nil {
		return refuse(gt2StatusNotFound, errors.New("gsi: endpoint does not accept streams"))
	}
	if derr != nil {
		return refuse(gt2StatusNotFound, derr)
	}
	exPeer, authErr := cfg.authorizer.authorize(spanContext(ctx, sp), peer, exchangeResource, req.op)
	if authErr != nil {
		return refuse(gt2Status(authErr), authErr)
	}
	owner := peerKey(peer)
	if len(req.token) > 0 {
		// Group slot i-1: stripe 0 is the owner's own connection.
		grp, err := groups.Join(req.token, owner, req.n-1, req.op, conn)
		if err != nil {
			return refuse(gt2StatusError, err)
		}
		// From here the connection belongs to the group until released:
		// even on a failed reply it must not be closed out from under the
		// transfer.
		replyErr := sendGT2Reply(bg, conn, gt2StatusOK, nil)
		ran := grp.Released()
		sp.End()
		return ran && replyErr == nil && !conn.Broken()
	}
	grp, err := groups.Open(owner, req.n-1, req.op)
	if err != nil {
		return refuse(gt2StatusError, err)
	}
	if err := sendGT2Reply(bg, conn, gt2StatusOK, grp.Token()); err != nil {
		grp.Release()
		sp.SetError(err)
		sp.End()
		return false
	}
	if !grp.Await() {
		// The client never completed the group; the joined stripes were
		// released and this connection can simply die.
		sp.SetError(errors.New("stripe group incomplete"))
		sp.End()
		return false
	}
	// Stripe 0's lane span parents a server.stream span covering the
	// handler's whole transfer.
	ok := runGT2Stream(ctx, cfg, append([]*gsitransport.Conn{conn}, grp.Conns()...), exPeer, req.op, "sopen:", sp.StartChild("server.stream"))
	grp.Release()
	sp.End()
	return ok
}

package gridftp

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/gridcert"
	"repro/internal/gsitransport"
	"repro/internal/gss"
	"repro/internal/proxy"
	"repro/internal/record"
	"repro/internal/trace"
)

// Parallel striped transfers, GridFTP's signature move (paper §3): the
// control connection negotiates a stripe count in the GETS/PUTS round
// trip, the client dials that many secured data connections and binds
// each to the transfer with a JOIN carrying an unguessable token, and
// the file then crosses all stripes at once as globally sequenced
// chunks. Each stripe seals/opens on its own connection — K stripes
// drive up to K cores — and every stripe ends with a FIN trailer
// carrying the total chunk count, so a stripe that dies mid-flight is
// always an error, never a silently truncated file.

// opJoin binds a freshly dialed data connection to a pending striped
// transfer. Payload: 16-byte token + u32 stripe index.
const opJoin = "JOIN"

// maxTransferStripes caps the stripe count a server grants.
const maxTransferStripes = 16

// stripeTokenLen is the transfer token size: 128 unguessable bits.
const stripeTokenLen = gsitransport.StripeTokenLen

// stripeMarker prefixes a GETS/PUTS payload that requests striping
// (legacy payloads — empty, or the 8-byte PUT size hint — can never
// collide with the marked lengths).
const stripeMarker = 'S'

func encodeStripeGetReq(k int) []byte {
	p := make([]byte, 5)
	p[0] = stripeMarker
	binary.BigEndian.PutUint32(p[1:], uint32(k))
	return p
}

func decodeStripeGetReq(payload []byte) (k int, ok bool) {
	if len(payload) != 5 || payload[0] != stripeMarker {
		return 0, false
	}
	return int(binary.BigEndian.Uint32(payload[1:])), true
}

func encodeStripePutReq(k int, hint uint64) []byte {
	p := make([]byte, 13)
	p[0] = stripeMarker
	binary.BigEndian.PutUint32(p[1:], uint32(k))
	binary.BigEndian.PutUint64(p[5:], hint)
	return p
}

func decodeStripePutReq(payload []byte) (k int, hint uint64, ok bool) {
	if len(payload) != 13 || payload[0] != stripeMarker {
		return 0, 0, false
	}
	return int(binary.BigEndian.Uint32(payload[1:])), binary.BigEndian.Uint64(payload[5:]), true
}

func clampStripes(k int) int {
	if k < 1 {
		return 1
	}
	if k > maxTransferStripes {
		return maxTransferStripes
	}
	return k
}

// encodeStripeGrant renders a GETS/PUTS grant: the granted stripe
// count, the transfer size (GET only; zero for PUT) and the transfer
// token.
func encodeStripeGrant(granted int, size uint64, token []byte) []byte {
	p := make([]byte, 12, 12+len(token))
	binary.BigEndian.PutUint32(p, uint32(granted))
	binary.BigEndian.PutUint64(p[4:], size)
	return append(p, token...)
}

// decodeStripeGrant parses and validates a grant from the server.
func decodeStripeGrant(p []byte) (granted int, size int64, token []byte, err error) {
	if len(p) != 12+stripeTokenLen {
		return 0, 0, nil, errMalformedGrant
	}
	granted = int(binary.BigEndian.Uint32(p))
	if granted < 1 || granted > maxTransferStripes {
		return 0, 0, nil, errMalformedGrant
	}
	return granted, int64(binary.BigEndian.Uint64(p[4:])), p[12:], nil
}

var errMalformedGrant = errors.New("gridftp: malformed stripe grant")

// encodeJoin renders a JOIN payload: the transfer token and the stripe
// index.
func encodeJoin(token []byte, idx int) []byte {
	return binary.BigEndian.AppendUint32(append([]byte(nil), token...), uint32(idx))
}

func decodeJoin(p []byte) (token []byte, idx int, ok bool) {
	if len(p) != stripeTokenLen+4 {
		return nil, 0, false
	}
	return p[:stripeTokenLen], int(binary.BigEndian.Uint32(p[stripeTokenLen:])), true
}

// --- server side ---------------------------------------------------------

// Striped transfers rendezvous through the server's
// gsitransport.Rendezvous: the control connection opens a group under
// the client's identity and grants its token, each JOIN binds one data
// connection to it, and the control goroutine awaits the group, runs
// the transfer and releases the data connections.

// serveJoin handles a JOIN on a data connection: bind the connection to
// its transfer and park until the transfer releases it. Reports whether
// the connection is still usable.
func (s *Server) serveJoin(conn *gsitransport.Conn, identity gridcert.Name, payload []byte, rctx trace.SpanContext) bool {
	token, idx, ok := decodeJoin(payload)
	if !ok {
		return conn.Send(encodeReply(opErr, "", []byte("gridftp: malformed JOIN"))) == nil
	}
	// The lane span continues the client's per-stripe context: it spans
	// the stripe's whole tenure in the transfer, join to release.
	sp := s.tracer.StartRemote(rctx, "gridftp.server.stripe")
	sp.SetPeer(identity.String())
	x, err := s.stripes.Join(token, identity.String(), idx, "", conn)
	if err != nil {
		sp.SetError(err)
		sp.End()
		return conn.Send(encodeReply(opErr, "", []byte(err.Error()))) == nil
	}
	// From here the connection belongs to the transfer until released:
	// even on a failed reply it must not be closed out from under it.
	replyErr := conn.Send(encodeReply(opOK, "", nil))
	ran := x.Released()
	sp.End()
	return ran && replyErr == nil && !conn.Broken()
}

// serveGetStriped answers a striped GET: grant min(k, cap) stripes and
// a transfer token, wait for the JOINs, and stream the file over all
// stripes at once. The control connection carries no further reply —
// the data plane's FIN trailers are the completion signal.
func (s *Server) serveGetStriped(ctx context.Context, conn *gsitransport.Conn, identity gridcert.Name, path string, k int, rctx trace.SpanContext) bool {
	sp := s.tracer.StartRemote(rctx, "gridftp.server.get")
	sp.SetPeer(identity.String())
	data, err := s.store.Open(identity, path)
	if err != nil {
		sp.SetError(err)
		sp.End()
		return conn.Send(encodeReply(opErr, path, []byte(err.Error()))) == nil
	}
	x, ok := s.grantStripes(conn, identity, path, k, uint64(len(data)), sp)
	if x == nil {
		sp.End()
		return ok
	}
	xfer := s.tracer.Transfers().Begin("get:"+path, identity.String(), len(x.Conns()), sp.Context().TraceID)
	s.runGetStripes(ctx, x.Conns(), data, sp, xfer)
	x.Release()
	return true
}

// grantStripes opens a group of min(k, cap) stripes under identity,
// sends the grant (with the transfer size, for a GET) on the control
// connection and awaits the JOINs. It returns the group ready to run,
// or nil once it has answered the control connection itself, with ok
// reporting whether that connection is still usable.
func (s *Server) grantStripes(conn *gsitransport.Conn, identity gridcert.Name, path string, k int, size uint64, sp *trace.Span) (x *gsitransport.StripeGroup, ok bool) {
	granted := clampStripes(k)
	x, err := s.stripes.Open(identity.String(), granted, "")
	if err != nil {
		sp.SetError(err)
		return nil, conn.Send(encodeReply(opErr, path, []byte(err.Error()))) == nil
	}
	if err := conn.Send(encodeReply(opOK, path, encodeStripeGrant(granted, size, x.Token()))); err != nil {
		x.Release()
		sp.SetError(err)
		return nil, false
	}
	if !x.Await() {
		err := errors.New("gridftp: stripes never joined")
		sp.SetError(err)
		return nil, conn.Send(encodeReply(opErr, path, []byte(err.Error()))) == nil
	}
	return x, true
}

func (s *Server) runGetStripes(ctx context.Context, conns []*gsitransport.Conn, data []byte, sp *trace.Span, xfer *trace.Transfer) {
	defer xfer.End()
	defer sp.End()
	w := gsitransport.NewStripedWriter(ctx, conns)
	if _, err := w.Write(data); err != nil {
		sp.SetError(err)
		w.CloseWithError(err.Error())
		return
	}
	sp.AddBytes(int64(len(data)))
	xfer.Add(int64(len(data)))
	w.Close()
}

// servePutStriped answers a striped PUT: authorize before inviting any
// data, grant stripes and a token, reassemble the inbound stripes, and
// send the verdict on the control connection.
func (s *Server) servePutStriped(ctx context.Context, conn *gsitransport.Conn, identity gridcert.Name, path string, k int, hint uint64, rctx trace.SpanContext) bool {
	sp := s.tracer.StartRemote(rctx, "gridftp.server.put")
	sp.SetPeer(identity.String())
	if err := s.store.authorize(identity, path, "write"); err != nil {
		sp.SetError(err)
		sp.End()
		return conn.Send(encodeReply(opErr, path, []byte(err.Error()))) == nil
	}
	x, ok := s.grantStripes(conn, identity, path, k, 0, sp)
	if x == nil {
		sp.End()
		return ok
	}
	xfer := s.tracer.Transfers().Begin("put:"+path, identity.String(), len(x.Conns()), sp.Context().TraceID)
	done := func(err error) {
		sp.SetError(err)
		sp.End()
		xfer.End()
	}
	assembled, err := s.runPutStripes(ctx, x.Conns(), hint)
	x.Release()
	if err != nil {
		done(err)
		var peerErr *record.PeerError
		if errors.As(err, &peerErr) {
			return conn.Send(encodeReply(opErr, path, []byte(peerErr.Msg))) == nil
		}
		return conn.Send(encodeReply(opErr, path, []byte(err.Error()))) == nil
	}
	sp.AddBytes(int64(len(assembled)))
	xfer.Add(int64(len(assembled)))
	if err := s.store.PutOwned(identity, path, assembled); err != nil {
		done(err)
		return conn.Send(encodeReply(opErr, path, []byte(err.Error()))) == nil
	}
	done(nil)
	return conn.Send(encodeReply(opOK, path, nil)) == nil
}

func (s *Server) runPutStripes(ctx context.Context, conns []*gsitransport.Conn, hint uint64) ([]byte, error) {
	prealloc := uint64(1 << 20)
	if hint > prealloc {
		prealloc = min(hint, uint64(maxPutPrealloc))
	}
	r := gsitransport.NewStripedReader(ctx, conns, 0)
	data, err := r.ReadAll(int(prealloc))
	r.Drain() // resynchronizes every stripe, or aborts the transfer
	return data, err
}

// --- client side ---------------------------------------------------------

// dialStripes dials and JOINs granted data connections, aligned by
// stripe index. On failure every dialed connection is closed and the
// pending control-connection verdict (the server's join-timeout ERR)
// is consumed so the session stays synchronized.
func (c *Client) dialStripes(granted int, token []byte, sp *trace.Span) ([]*gsitransport.Conn, []*trace.Span, error) {
	var (
		conns []*gsitransport.Conn
		lanes []*trace.Span // per-stripe children of sp; nil entries never occur
	)
	fail := func(err error) ([]*gsitransport.Conn, []*trace.Span, error) {
		for _, dc := range conns {
			dc.Close()
		}
		for _, lane := range lanes {
			lane.SetError(err)
			lane.End()
		}
		// The server's control goroutine is waiting for the group; its
		// join timeout will deliver an ERR we must not leave in the
		// reply stream.
		c.readReply()
		return nil, nil, err
	}
	for i := 0; i < granted; i++ {
		var lane *trace.Span
		if sp != nil {
			// Each JOIN carries its own lane context so the server's
			// per-stripe spans parent under this lane, not the root.
			lane = sp.StartChild("gridftp.stripe")
			lanes = append(lanes, lane)
		}
		dc, err := gsitransport.Dial(c.addr, gss.Config{
			Credential:   c.cred,
			TrustStore:   c.trust,
			ExpectedPeer: c.expectHost,
		})
		if err != nil {
			return fail(err)
		}
		conns = append(conns, dc)
		msg, err := encodeCmd(opJoin, "", traceSuffix(lane, encodeJoin(token, i)))
		if err != nil {
			return fail(err)
		}
		if err := dc.Send(msg); err != nil {
			return fail(err)
		}
		reply, err := dc.Receive()
		if err != nil {
			return fail(err)
		}
		rverb, _, rpayload, err := decodeCmd(reply)
		if err != nil {
			return fail(err)
		}
		if rverb == opErr {
			return fail(fmt.Errorf("gridftp: server: %s", rpayload))
		}
	}
	return conns, lanes, nil
}

// StripedGetReader is an in-flight striped GET: an io.ReadCloser
// delivering the file in order as its stripes arrive.
type StripedGetReader struct {
	r     *gsitransport.StripedReader
	conns []*gsitransport.Conn
	size  int64
	err   error
	sp    *trace.Span     // nil when untraced
	lanes []*trace.Span   // per-stripe children, ended at Close
	xfer  *trace.Transfer // nil when untraced
}

// Size is the transfer size the server announced in its grant.
func (g *StripedGetReader) Size() int64 { return g.size }

// Read returns file bytes in global order, io.EOF after every stripe's
// FIN agrees the file is complete.
func (g *StripedGetReader) Read(p []byte) (int, error) {
	n, err := g.r.Read(p)
	var peerErr *record.PeerError
	if errors.As(err, &peerErr) {
		err = fmt.Errorf("gridftp: server: %s", peerErr.Msg)
	}
	if err != nil && err != io.EOF {
		g.err = err
	}
	if n > 0 {
		g.sp.AddBytes(int64(n))
		g.xfer.Add(int64(n))
	}
	return n, err
}

// finishTrace ends lanes, root span, and transfer registration once.
func (g *StripedGetReader) finishTrace() {
	for _, lane := range g.lanes {
		lane.End()
	}
	g.sp.SetError(g.err)
	g.sp.End()
	g.xfer.End()
	g.sp, g.lanes, g.xfer = nil, nil, nil
}

// Close drains any unread remainder, reaps the stripe readers, and
// closes the data connections (they are transfer-scoped). A failure
// Read already returned is not reported again.
func (g *StripedGetReader) Close() error {
	defer g.finishTrace()
	err := g.r.Drain()
	for _, dc := range g.conns {
		dc.Close()
	}
	if g.err != nil {
		return nil
	}
	g.err = err
	return err
}

// GetStripedReader starts a striped GET of path over up to stripes
// data connections (the server may grant fewer).
func (c *Client) GetStripedReader(path string, stripes int) (*StripedGetReader, error) {
	sp := c.tracer.StartRoot("gridftp.get")
	sp.SetPeer(c.expectHost.String())
	fail := func(err error) (*StripedGetReader, error) {
		sp.SetError(err)
		sp.End()
		return nil, err
	}
	grant, err := c.roundTrip(opGetS, path, traceSuffix(sp, encodeStripeGetReq(stripes)))
	if err != nil {
		return fail(err)
	}
	granted, size, token, err := decodeStripeGrant(grant)
	if err != nil {
		return fail(err)
	}
	conns, lanes, err := c.dialStripes(granted, token, sp)
	if err != nil {
		return fail(err)
	}
	return &StripedGetReader{
		r:     gsitransport.NewStripedReader(context.Background(), conns, 0),
		conns: conns,
		size:  size,
		sp:    sp,
		lanes: lanes,
		xfer:  c.tracer.Transfers().Begin("get:"+path, c.expectHost.String(), granted, sp.Context().TraceID),
	}, nil
}

// GetStriped fetches a file over parallel stripes into memory.
func (c *Client) GetStriped(path string, stripes int) ([]byte, error) {
	g, err := c.GetStripedReader(path, stripes)
	if err != nil {
		return nil, err
	}
	hint := 0
	if g.size > 0 && g.size <= maxPutPrealloc {
		hint = int(g.size)
	}
	data, err := g.r.ReadAll(hint)
	if err != nil {
		g.err = err
		g.Close()
		var peerErr *record.PeerError
		if errors.As(err, &peerErr) {
			return nil, fmt.Errorf("gridftp: server: %s", peerErr.Msg)
		}
		return nil, err
	}
	g.sp.AddBytes(int64(len(data)))
	g.xfer.Add(int64(len(data)))
	g.Close()
	return data, nil
}

// StripedPutWriter is an in-flight striped PUT: an io.WriteCloser
// whose Close completes the transfer and returns the server's verdict
// from the control connection.
type StripedPutWriter struct {
	c     *Client
	w     *gsitransport.StripedWriter
	conns []*gsitransport.Conn
	done  bool
	sp    *trace.Span     // nil when untraced
	lanes []*trace.Span   // per-stripe children, ended at Close/Abort
	xfer  *trace.Transfer // nil when untraced
}

// Write deals file bytes across the stripes.
func (w *StripedPutWriter) Write(p []byte) (int, error) {
	n, err := w.w.Write(p)
	if n > 0 {
		w.sp.AddBytes(int64(n))
		w.xfer.Add(int64(n))
	}
	return n, err
}

func (w *StripedPutWriter) finishTrace(err error) {
	for _, lane := range w.lanes {
		lane.End()
	}
	w.sp.SetError(err)
	w.sp.End()
	w.xfer.End()
	w.sp, w.lanes, w.xfer = nil, nil, nil
}

// Close sends the FIN trailer on every stripe and waits for the
// server's verdict.
func (w *StripedPutWriter) Close() error {
	if w.done {
		return nil
	}
	w.done = true
	werr := w.w.Close()
	_, rerr := w.c.readReply()
	for _, dc := range w.conns {
		dc.Close()
	}
	if rerr != nil {
		w.finishTrace(rerr)
		return rerr
	}
	w.finishTrace(werr)
	return werr
}

// Abort cancels the transfer: every stripe carries the ERROR record,
// the server discards the partial file, and the control session stays
// usable.
func (w *StripedPutWriter) Abort(reason string) error {
	if w.done {
		return nil
	}
	w.done = true
	w.finishTrace(errors.New(reason))
	w.w.CloseWithError(reason)
	_, rerr := w.c.readReply()
	for _, dc := range w.conns {
		dc.Close()
	}
	if rerr == nil {
		return errors.New("gridftp: server confirmed an aborted transfer")
	}
	return nil
}

// PutStripedWriter starts a striped PUT to path over up to stripes
// data connections. The server authorizes the write before any grant.
func (c *Client) PutStripedWriter(path string, stripes int, sizeHint int64) (*StripedPutWriter, error) {
	var hint uint64
	if sizeHint > 0 {
		hint = uint64(sizeHint)
	}
	sp := c.tracer.StartRoot("gridftp.put")
	sp.SetPeer(c.expectHost.String())
	fail := func(err error) (*StripedPutWriter, error) {
		sp.SetError(err)
		sp.End()
		return nil, err
	}
	grant, err := c.roundTrip(opPutS, path, traceSuffix(sp, encodeStripePutReq(stripes, hint)))
	if err != nil {
		return fail(err)
	}
	granted, _, token, err := decodeStripeGrant(grant)
	if err != nil {
		return fail(err)
	}
	conns, lanes, err := c.dialStripes(granted, token, sp)
	if err != nil {
		return fail(err)
	}
	return &StripedPutWriter{
		c:     c,
		w:     gsitransport.NewStripedWriter(context.Background(), conns),
		conns: conns,
		sp:    sp,
		lanes: lanes,
		xfer:  c.tracer.Transfers().Begin("put:"+path, c.expectHost.String(), granted, sp.Context().TraceID),
	}, nil
}

// PutStriped stores a file over parallel stripes.
func (c *Client) PutStriped(path string, stripes int, data []byte) error {
	w, err := c.PutStripedWriter(path, stripes, int64(len(data)))
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Abort(err.Error())
		return err
	}
	return w.Close()
}

// ThirdPartyTransferStriped is ThirdPartyTransfer over parallel
// stripes on both legs: the delegated credential opens striped
// sessions to source and destination, and the file flows stripes-in to
// stripes-out without ever materializing.
func ThirdPartyTransferStriped(client *gridcert.Credential, trust *gridcert.TrustStore,
	srcAddr string, srcHost gridcert.Name,
	dstAddr string, dstHost gridcert.Name,
	srcPath, dstPath string, stripes int) error {

	delegatee, req, err := proxy.NewDelegatee(0, false)
	if err != nil {
		return err
	}
	reply, err := proxy.HandleDelegation(client, req, proxy.Options{})
	if err != nil {
		return err
	}
	delegated, err := delegatee.Accept(reply)
	if err != nil {
		return err
	}

	srcConn, err := Dial(srcAddr, delegated, trust, srcHost)
	if err != nil {
		return fmt.Errorf("gridftp: third-party: source: %w", err)
	}
	defer srcConn.Close()
	dstConn, err := Dial(dstAddr, delegated, trust, dstHost)
	if err != nil {
		return fmt.Errorf("gridftp: third-party: destination: %w", err)
	}
	defer dstConn.Close()

	get, err := srcConn.GetStripedReader(srcPath, stripes)
	if err != nil {
		return err
	}
	put, err := dstConn.PutStripedWriter(dstPath, stripes, get.Size())
	if err != nil {
		get.Close()
		return err
	}
	buf := record.Get(transferCopyBuffer)
	_, err = io.CopyBuffer(put, get, buf.B[:transferCopyBuffer])
	buf.Free()
	if err != nil {
		put.Abort(err.Error())
		get.Close()
		return err
	}
	if err := put.Close(); err != nil {
		get.Close()
		return err
	}
	return get.Close()
}

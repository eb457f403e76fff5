package gridftp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/gridcert"
	"repro/internal/gsitransport"
	"repro/internal/gss"
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

// dataConns accepts a GETS/PUTS command and gathers the connections its
// file crosses: the control connection itself for an unmarked command
// (stripes = 0), or a group of that many stripes opened under identity,
// granted (with the file size, for a GET) and joined. release ends the
// stripes' tenure once the transfer is done. A nil conns means the
// command was answered here, and ok reports whether the control
// connection is still usable.
func (s *Server) dataConns(conn *gsitransport.Conn, identity gridcert.Name, path string, stripes int, size uint64, sp *trace.Span) (conns []*gsitransport.Conn, release func(), ok bool) {
	if stripes == 0 {
		if err := conn.Send(encodeReply(opOK, path, nil)); err != nil {
			sp.SetError(err)
			return nil, nil, false
		}
		return []*gsitransport.Conn{conn}, func() {}, true
	}
	x, err := s.stripes.Open(identity.String(), stripes, "")
	if err != nil {
		sp.SetError(err)
		return nil, nil, conn.Send(encodeReply(opErr, path, []byte(err.Error()))) == nil
	}
	if err := conn.Send(encodeReply(opOK, path, encodeStripeGrant(stripes, size, x.Token()))); err != nil {
		x.Release()
		sp.SetError(err)
		return nil, nil, false
	}
	if !x.Await() {
		err := errors.New("gridftp: stripes never joined")
		sp.SetError(err)
		return nil, nil, conn.Send(encodeReply(opErr, path, []byte(err.Error()))) == nil
	}
	return x.Conns(), x.Release, true
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

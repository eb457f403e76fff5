package gsi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/gsitransport"
	"repro/internal/ogsa"
	"repro/internal/record"
	"repro/internal/soap"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/wssec"
	"repro/internal/xmlsec"
)

// Handler serves one secured exchange on a Server. By the time it runs,
// the transport has authenticated peer and (for GT3) the container has
// authorized the call; op and body are the application request. Op
// names beginning with "gsi.__" are reserved for the transport itself
// (the GT2 liveness ping) and never reach the handler.
type Handler func(ctx context.Context, peer Peer, op string, body []byte) ([]byte, error)

// Session is an established secured channel to one peer. Exchange is a
// request/response round-trip; every call honors its context's
// cancellation and deadline mid-RPC.
type Session interface {
	// Exchange sends op+body and returns the peer's reply.
	Exchange(ctx context.Context, op string, body []byte) ([]byte, error)
	// OpenStream opens a chunked byte stream for op (authorized once,
	// server-side, before any data flows). The stream owns the session
	// until its Close; see the Stream type for the protocol.
	OpenStream(ctx context.Context, op string) (Stream, error)
	// Peer is the authenticated remote party (zero-valued on
	// ProtectionSigned GT3 sessions, which authenticate requests, not
	// the response channel).
	Peer() Peer
	// Close releases the session.
	Close() error
}

// Endpoint is a served address accepting sessions.
type Endpoint interface {
	// Addr is the dialable address: "host:port" for GT2, a URL for GT3.
	Addr() string
	// Close stops accepting and tears down live sessions.
	Close() error
}

// Transport is how secured sessions reach peers. The two
// implementations carry the very same GSS handshake tokens — the GT2
// transport frames them over TCP, the GT3 transport carries them in
// SOAP envelopes (the paper's §5.1 observation) — so callers choose by
// option, not by function name:
//
//	client, _ := env.NewClient(cred, gsi.WithTransport(gsi.TransportGT3()))
type Transport interface {
	// String names the transport ("gt2", "gt3").
	String() string
	// Dial establishes a secured session with the peer at endpoint.
	Dial(ctx context.Context, endpoint string, cfg DialConfig) (Session, error)
	// Serve accepts sessions on addr, delivering exchanges to a handler.
	Serve(ctx context.Context, addr string, cfg ServeConfig) (Endpoint, error)
}

// DialConfig is what a Transport needs to initiate sessions. Custom
// Transport implementations receive the resolved option set this way.
type DialConfig struct {
	// Context parameterises the GSS handshake.
	Context ContextConfig
	// Protection selects the message-protection mechanism.
	Protection ProtectionLevel

	// resumption and resumeKey, when set by a pooling client, let the
	// GT3 transport resume an established secure conversation (one
	// symmetric-crypto round trip) instead of re-running the WS-Trust
	// bootstrap. The key is the client's pool key rendered to a stable
	// string, so the two keyings can never diverge. Custom transports
	// never see either; they are plumbing between the session pool and
	// the built-in transports.
	resumption *wssec.ResumptionCache
	resumeKey  string
}

// ServeConfig is what a Transport needs to accept sessions.
//
// Authorization has one seam per endpoint, resolved by Server.Serve into
// one of three modes: pipeline (the server's AuthorizationPipeline: CAS
// assertion, VO ∩ local policy, gridmap, with the mapped account on the
// handler's Peer), engine (the environment's WithAuthorizer engine,
// requests stamped with the environment clock), or authenticated-only
// (no authorization configured: any authenticated peer is permitted).
// Every exchange, stream open and striped open on both transports is
// decided by one call into it. The admin surface and the CAS-publish
// feed require a deciding mode; Serve refuses them authenticated-only.
// A ServeConfig built outside this package serves authenticated-only.
type ServeConfig struct {
	// Context parameterises the acceptor side of handshakes.
	Context ContextConfig
	// Handler receives authenticated, authorized exchanges.
	Handler Handler
	// StreamHandler receives opened streams (Session.OpenStream on the
	// client side); nil refuses stream opens.
	StreamHandler StreamHandler

	// authorizer is the endpoint's authorization seam (see above).
	authorizer serverAuthorizer

	// ConfigureContainer, when set, observes the GT3 hosting container
	// after the exchange service is published and before the listener
	// opens — the facade's control plane uses it to register the
	// conversation table with its metrics and to publish the admin port
	// type. An error aborts Serve. GT2 has no container; transports
	// without one ignore the hook.
	ConfigureContainer func(*ogsa.Container) error

	// Tracer, when set, records server-side spans for every exchange,
	// stream, and stripe lane, continuing the trace context received
	// over the wire (the GT2 trailing field, the GT3 SOAP header) so
	// client and server spans share one trace id. Nil disables tracing.
	Tracer *Tracer
}

// exchangeHandle is the service handle GT3 exchanges are routed under.
const exchangeHandle = "gsi.exchange"

// reservedOpPrefix is the op namespace owned by the transport layer:
// ops under it never reach the authorizer or the application handler
// on either transport.
const reservedOpPrefix = "gsi.__"

// gt2PingOp is the infrastructure-level liveness probe of the GT2
// exchange protocol: answered by the server loop itself (one wrapped
// round trip proving peer, context, and record stream are all alive)
// without touching the authorizer or the application handler.
const gt2PingOp = reservedOpPrefix + "ping"

// streamOpenOp opens a chunked stream on a session. Its body names the
// application op the stream is for; the server authorizes that op —
// once, through the PR-4 pipeline when configured — before any chunk
// flows. The GT3 form suffixes the op: "gsi.__stream.open:<op>".
const streamOpenOp = reservedOpPrefix + "stream.open"

// gt2PingOpBytes/pongBytes keep the ping fast path allocation-free.
var (
	gt2PingOpBytes = []byte(gt2PingOp)
	pongBytes      = []byte("pong")
)

// --- GT2: the raw-socket transport -------------------------------------

type gt2Transport struct{}

// TransportGT2 returns the GT2 transport: the GSS handshake framed
// directly over TCP, followed by wrapped records (paper §3). Endpoints
// are "host:port" addresses.
func TransportGT2() Transport { return gt2Transport{} }

func (gt2Transport) String() string { return "gt2" }

// gt2 exchange framing: request = (op, body); reply = (status, payload)
// where status 0 carries a result and nonzero an error message.
const (
	gt2StatusOK byte = iota
	gt2StatusUnauthorized
	gt2StatusNotFound
	gt2StatusError
)

func gt2EncodeRequest(op string, body []byte) []byte {
	return wire.NewEncoder().Str(op).Bytes(body).Finish()
}

func gt2DecodeRequest(b []byte) (op string, body []byte, err error) {
	d := wire.NewDecoder(b)
	op = d.Str()
	body = d.Bytes()
	return op, body, d.Done()
}

func gt2EncodeReply(status byte, payload []byte) []byte {
	return wire.NewEncoder().U8(status).Bytes(payload).Finish()
}

func gt2DecodeReply(b []byte) (status byte, payload []byte, err error) {
	d := wire.NewDecoder(b)
	status = d.U8()
	payload = d.Bytes()
	return status, payload, d.Done()
}

func gt2Status(err error) byte {
	switch {
	case errors.Is(err, ErrUnauthorized):
		return gt2StatusUnauthorized
	case errors.Is(err, ErrNotFound):
		return gt2StatusNotFound
	default:
		return gt2StatusError
	}
}

// errRemoteStatus marks errors the peer reported over an intact record
// stream: the exchange failed, but the connection is still safe to
// reuse (the session pool branches on this when deciding poisoning).
var errRemoteStatus = errors.New("gsi: remote status")

func gt2StatusErr(status byte, msg string) error {
	remote := fmt.Errorf("%w: %s", errRemoteStatus, msg)
	switch status {
	case gt2StatusUnauthorized:
		return &Error{Op: "gsi.Session.Exchange", Kind: ErrUnauthorized, Err: remote}
	case gt2StatusNotFound:
		return &Error{Op: "gsi.Session.Exchange", Kind: ErrNotFound, Err: remote}
	default:
		return &Error{Op: "gsi.Session.Exchange", Err: remote}
	}
}

func (gt2Transport) Dial(ctx context.Context, endpoint string, cfg DialConfig) (Session, error) {
	conn, err := gsitransport.DialContext(ctx, endpoint, cfg.Context)
	if err != nil {
		return nil, err
	}
	return &gt2Session{conn: conn}, nil
}

type gt2Session struct {
	conn *gsitransport.Conn
	mu   sync.Mutex // serializes request/response pairs on the record stream
}

// roundTrip performs one request/reply pair on the record layer: the
// request is assembled directly into a pooled frame buffer (sealed in
// place, one write), the reply is read into a pooled buffer and opened
// in place. On success the reply payload is returned as a view backed
// by buf — the caller must Free it. Callers hold s.mu.
func (s *gt2Session) roundTrip(ctx context.Context, op string, body []byte) (payload []byte, buf *record.Buf, err error) {
	// A traced operation appends its span context as a fixed-size
	// trailer behind the (op, body) layout; untraced requests are
	// byte-identical to the pre-trace wire format.
	sp := trace.SpanFromContext(ctx)
	extra := 0
	if sp != nil {
		extra = trace.EncodedLen
	}
	reqBuf := record.Get(gsitransport.SendOverhead + 8 + len(op) + len(body) + extra)
	var e wire.Encoder
	e.Reset(reqBuf.B[:gsitransport.Headroom]).Str(op).Bytes(body)
	if sp != nil {
		var tmp [trace.EncodedLen]byte
		e.Raw(sp.Context().Encode(tmp[:0]))
	}
	frame := e.Finish()
	err = s.conn.SendAssembled(ctx, frame)
	reqBuf.Free()
	if err != nil {
		return nil, nil, err
	}
	reply, rbuf, err := s.conn.ReceiveView(ctx)
	if err != nil {
		return nil, nil, err
	}
	d := wire.NewDecoder(reply)
	status := d.U8()
	payload = d.View()
	if err := d.Done(); err != nil {
		rbuf.Free()
		return nil, nil, err
	}
	if status != gt2StatusOK {
		err = gt2StatusErr(status, string(payload))
		rbuf.Free()
		return nil, nil, err
	}
	return payload, rbuf, nil
}

func (s *gt2Session) Exchange(ctx context.Context, op string, body []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	payload, buf, err := s.roundTrip(ctx, op, body)
	if err != nil {
		return nil, opErr("gsi.Session.Exchange", err)
	}
	// The payload view dies with the pooled buffer; the caller owns the
	// result, so this copy is the one unavoidable allocation.
	out := make([]byte, len(payload))
	copy(out, payload)
	buf.Free()
	return out, nil
}

func (s *gt2Session) Peer() Peer { return s.conn.Peer() }

func (s *gt2Session) Close() error { return s.conn.Close() }

// Healthy is the I/O-free reuse check the session pool runs: record
// stream intact, security context unexpired.
func (s *gt2Session) Healthy() bool { return s.conn.Healthy() }

// Probe is the active liveness check: one ping exchange through the
// secured stream, answered by the server loop below the application.
// It rides the pooled record path end to end and — unlike Exchange —
// discards the payload view instead of copying it, so an idle-pool
// probe allocates nothing.
func (s *gt2Session) Probe(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, buf, err := s.roundTrip(ctx, gt2PingOp, nil)
	if err != nil {
		return err
	}
	buf.Free()
	return nil
}

func (t gt2Transport) Serve(ctx context.Context, addr string, cfg ServeConfig) (Endpoint, error) {
	inner, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	serveCtx, cancel := context.WithCancel(ctx)
	listener := gsitransport.NewListener(inner, cfg.Context)
	ep := &gt2Endpoint{addr: inner.Addr().String(), cancel: cancel, listener: listener}
	// The stripe rendezvous is endpoint-scoped: striped opens on
	// different connections of this endpoint meet through it.
	groups := new(gsitransport.Rendezvous)
	go func() {
		for {
			conn, err := listener.AcceptContext(serveCtx)
			if err != nil {
				if serveCtx.Err() != nil || errors.Is(err, net.ErrClosed) {
					return
				}
				continue // a failed handshake must not stop the acceptor
			}
			go serveGT2Conn(serveCtx, conn, cfg, groups)
		}
	}()
	return ep, nil
}

// sendGT2Reply assembles a status/payload reply directly in a pooled
// frame buffer and sends it sealed in place.
func sendGT2Reply(ctx context.Context, conn *gsitransport.Conn, status byte, payload []byte) error {
	buf := record.Get(gsitransport.SendOverhead + 5 + len(payload))
	var e wire.Encoder
	frame := e.Reset(buf.B[:gsitransport.Headroom]).U8(status).Bytes(payload).Finish()
	err := conn.SendAssembled(ctx, frame)
	buf.Free()
	return err
}

// maxInternedOps bounds the per-connection op-name intern table so a
// hostile peer cycling op names cannot grow it without limit.
const maxInternedOps = 1024

// serveGT2Conn answers exchanges on one accepted connection until the
// peer hangs up or the serve context ends. The serve context is watched
// once per connection (CloseOnDone) rather than once per record, and
// the request path runs on pooled record views: the only steady-state
// allocations are the ones the application handler itself makes.
//
// The body slice a Handler receives is a view into a pooled record
// buffer, valid only for the duration of the call — handlers that
// retain it must copy (returning it, as an echo handler does, is safe:
// the reply is sealed before the buffer is reused).
func serveGT2Conn(ctx context.Context, conn *gsitransport.Conn, cfg ServeConfig, groups *gsitransport.Rendezvous) {
	defer conn.Close()
	stop := conn.CloseOnDone(ctx)
	defer stop()
	peer := conn.Peer()
	tracer := cfg.Tracer
	var peerDN string
	if tracer != nil {
		peerDN = peer.Identity.String()
	}
	// handshakeSpan emits the connection's handshake timing once, as a
	// retroactive child of the first traced span on the connection —
	// the handshake happened before any trace context arrived, so it
	// joins the trace after the fact.
	hsEmitted := false
	handshakeSpan := func(sp *trace.Span) {
		if hsEmitted || sp == nil {
			return
		}
		hsEmitted = true
		start, d := conn.HandshakeTiming()
		sp.AddTimed("server.handshake", start, d, peerDN)
	}
	// Op names are interned per connection so the string conversion is
	// paid once per distinct op, not once per exchange.
	interned := make(map[string]string)
	bg := context.Background() // cancellation arrives via CloseOnDone
	for {
		req, rbuf, err := conn.ReceiveView(bg)
		if err != nil {
			return
		}
		d := wire.NewDecoder(req)
		opView := d.View()
		body := d.View()
		// The optional trace-context trailer is consumed regardless of
		// whether this endpoint traces — a traced client talking to an
		// untraced server must still frame-decode cleanly.
		var remote trace.SpanContext
		if tail := d.Tail(trace.EncodedLen); tail != nil {
			remote, _ = trace.DecodeSpanContext(tail)
		}
		if err := d.Done(); err != nil {
			rbuf.Free()
			return
		}
		// Infrastructure fast path: the liveness ping answers below the
		// authorizer and allocates nothing.
		if bytes.Equal(opView, gt2PingOpBytes) {
			rbuf.Free()
			if err := sendGT2Reply(bg, conn, gt2StatusOK, pongBytes); err != nil {
				return
			}
			continue
		}
		op, ok := interned[string(opView)] // no-alloc map probe
		if !ok {
			op = string(opView)
			if len(interned) < maxInternedOps {
				interned[op] = op
			}
		}
		if op == streamOpenOp {
			var sp *trace.Span
			if tracer != nil {
				sp = tracer.StartRemote(remote, "server.stream")
				sp.SetPeer(peerDN)
				handshakeSpan(sp)
			}
			if !serveGT2Stream(ctx, conn, cfg, peer, string(body), rbuf, sp) {
				return
			}
			continue
		}
		if op == stripedOpenOp {
			var sp *trace.Span
			if tracer != nil {
				sp = tracer.StartRemote(remote, "server.stripe")
				sp.SetPeer(peerDN)
				handshakeSpan(sp)
			}
			if !serveGT2StripedOpen(ctx, conn, cfg, peer, groups, body, rbuf, sp) {
				return
			}
			continue
		}
		var status byte = gt2StatusOK
		var payload []byte
		if strings.HasPrefix(op, reservedOpPrefix) {
			status, payload = gt2StatusNotFound, []byte("gsi: reserved op "+op)
		} else {
			// The server span continues the client's trace when a context
			// arrived; otherwise it roots a server-local trace.
			var sp *trace.Span
			hctx := ctx
			if tracer != nil {
				sp = tracer.StartRemote(remote, "server.exchange")
				sp.SetPeer(peerDN)
				handshakeSpan(sp)
				hctx = trace.ContextWithSpan(ctx, sp)
			}
			// The handler sees the peer as authorized, carrying its
			// mapped account in pipeline mode.
			exPeer, herr := cfg.authorizer.authorize(hctx, peer, exchangeResource, op)
			if herr == nil {
				payload, herr = cfg.Handler(hctx, exPeer, op, body)
			}
			if herr != nil {
				status, payload = gt2Status(herr), []byte(herr.Error())
				sp.SetError(herr)
			}
			if sp != nil {
				sp.AddBytes(int64(len(body)))
				sp.End()
			}
		}
		// The reply is sealed from payload before the request buffer is
		// released: a handler echoing its body view stays valid.
		err = sendGT2Reply(bg, conn, status, payload)
		rbuf.Free()
		if err != nil {
			return
		}
	}
}

// serveGT2Stream handles one stream open on a GT2 connection: authorize
// the named op (once per stream) and run the stream. Reports whether
// the connection is still usable.
func serveGT2Stream(ctx context.Context, conn *gsitransport.Conn, cfg ServeConfig, peer Peer, op string, rbuf *record.Buf, sp *trace.Span) bool {
	rbuf.Free()
	if cfg.StreamHandler == nil {
		return refuseStream(conn, sp, gt2StatusNotFound, errors.New("gsi: endpoint does not accept streams"))
	}
	if op == "" || strings.HasPrefix(op, reservedOpPrefix) {
		return refuseStream(conn, sp, gt2StatusNotFound, errors.New("gsi: invalid stream op "+op))
	}
	exPeer, authErr := cfg.authorizer.authorize(spanContext(ctx, sp), peer, exchangeResource, op)
	if authErr != nil {
		return refuseStream(conn, sp, gt2Status(authErr), authErr)
	}
	if err := sendGT2Reply(context.Background(), conn, gt2StatusOK, nil); err != nil {
		sp.SetError(err)
		sp.End()
		return false
	}
	return runGT2Stream(ctx, cfg, []*gsitransport.Conn{conn}, exPeer, op, "stream:", sp)
}

// refuseStream answers a stream open with status and err, ending sp.
// Reports whether the connection is still usable.
func refuseStream(conn *gsitransport.Conn, sp *trace.Span, status byte, err error) bool {
	sp.SetError(err)
	sp.End()
	return sendGT2Reply(context.Background(), conn, status, []byte(err.Error())) == nil
}

type gt2Endpoint struct {
	addr     string
	cancel   context.CancelFunc
	listener *gsitransport.Listener
}

func (e *gt2Endpoint) Addr() string { return e.addr }

func (e *gt2Endpoint) Close() error {
	e.cancel()
	return e.listener.Close()
}

// --- GT3: the SOAP/HTTP transport --------------------------------------

type gt3Transport struct{}

// TransportGT3 returns the GT3 transport: the same handshake tokens
// carried in WS-SecureConversation SOAP envelopes over HTTP, or
// per-message XML signatures for ProtectionSigned (paper §4.4, §5.1).
// Endpoints are SOAP URLs as returned by Endpoint.Addr.
func TransportGT3() Transport { return gt3Transport{} }

func (gt3Transport) String() string { return "gt3" }

func (gt3Transport) Dial(ctx context.Context, endpoint string, cfg DialConfig) (Session, error) {
	soapClient := &soap.Client{Endpoint: endpoint}
	transport := func(ctx context.Context, env *soap.Envelope) (*soap.Envelope, error) {
		return soapClient.CallContext(ctx, env)
	}
	if cfg.Protection == ProtectionSigned {
		return &gt3SignedSession{cred: cfg.Context.Credential, transport: transport}, nil
	}
	if cfg.resumption != nil && cfg.resumeKey != "" {
		conv, _, err := cfg.resumption.EstablishOrResume(ctx, cfg.resumeKey, cfg.Context, transport)
		if err != nil {
			return nil, err
		}
		return &gt3Session{conv: conv}, nil
	}
	conv, err := wssec.EstablishConversationContext(ctx, cfg.Context, transport)
	if err != nil {
		return nil, err
	}
	return &gt3Session{conv: conv}, nil
}

type gt3Session struct {
	conv *wssec.Conversation
}

func (s *gt3Session) Exchange(ctx context.Context, op string, body []byte) ([]byte, error) {
	out, err := s.invoke(ctx, exchangeHandle, op, body)
	return out, opErr("gsi.Session.Exchange", err)
}

// invoke calls op on the container service published under handle,
// over the conversation.
func (s *gt3Session) invoke(ctx context.Context, handle, op string, body []byte) ([]byte, error) {
	env := soap.NewEnvelope("ogsa-sc/"+handle+"/"+op, body)
	setTraceHeader(ctx, env)
	reply, err := s.conv.CallContext(ctx, env)
	if err != nil {
		return nil, err
	}
	return reply.Body, nil
}

func (s *gt3Session) Peer() Peer { return s.conv.Peer() }

func (s *gt3Session) Close() error { return nil }

// Healthy reports whether the conversation's context has not lapsed.
func (s *gt3Session) Healthy() bool { return !s.conv.Context().Expired() }

// gt3SignedSession is the stateless variant: no context, each message
// signed under the caller's credential.
type gt3SignedSession struct {
	cred      *Credential
	transport wssec.ContextTransport
}

func (s *gt3SignedSession) Exchange(ctx context.Context, op string, body []byte) ([]byte, error) {
	out, err := s.invoke(ctx, exchangeHandle, op, body)
	return out, opErr("gsi.Session.Exchange", err)
}

// invoke calls op on the container service published under handle,
// signing the request under the caller's credential.
func (s *gt3SignedSession) invoke(ctx context.Context, handle, op string, body []byte) ([]byte, error) {
	env := soap.NewEnvelope("ogsa/"+handle+"/"+op, body)
	if err := xmlsec.SignEnvelope(env, s.cred); err != nil {
		return nil, err
	}
	reply, err := s.transport(ctx, env)
	if err != nil {
		return nil, err
	}
	if reply.Fault != nil {
		return nil, reply.Fault
	}
	return reply.Body, nil
}

func (s *gt3SignedSession) Peer() Peer { return Peer{} }

func (s *gt3SignedSession) Close() error { return nil }

func (gt3Transport) Serve(ctx context.Context, addr string, cfg ServeConfig) (Endpoint, error) {
	serveCtx, cancel := context.WithCancel(ctx)
	svc := &handlerService{ctx: serveCtx, h: cfg.Handler, sh: cfg.StreamHandler, reg: newGT3StreamRegistry(), tracer: cfg.Tracer}
	// The gate is the container's only authorization step: every call —
	// exchanges, stream opens, the admin and CAS-sync port types — is
	// decided by the endpoint's seam, and chunk calls are admitted by
	// the stream their peer opened.
	container, err := ogsa.NewContainer(ogsa.ContainerConfig{
		Name:            exchangeHandle,
		Credential:      cfg.Context.Credential,
		TrustStore:      cfg.Context.TrustStore,
		ChainAuthorizer: &gt3AuthGate{authorizer: cfg.authorizer, reg: svc.reg},
		RejectLimited:   cfg.Context.RejectLimited,
		Now:             cfg.Context.Now,
	})
	if err != nil {
		cancel()
		return nil, err
	}
	container.Publish(exchangeHandle, svc)
	if cfg.ConfigureContainer != nil {
		if err := cfg.ConfigureContainer(container); err != nil {
			cancel()
			return nil, err
		}
	}
	srv, err := soap.NewServer(addr, container.Dispatcher())
	if err != nil {
		cancel()
		return nil, err
	}
	return &gt3Endpoint{url: srv.URL(), cancel: cancel, close: srv.Close}, nil
}

// handlerService adapts a Handler to the OGSA service interface. The
// per-exchange context is the serve context: SOAP's request path carries
// no caller deadline, so cancellation here means endpoint shutdown.
type handlerService struct {
	ctx    context.Context
	h      Handler
	sh     StreamHandler
	reg    *gt3StreamRegistry
	tracer *Tracer
}

func (s *handlerService) Invoke(call *ogsa.Call) ([]byte, error) {
	if strings.HasPrefix(call.Op, reservedOpPrefix) {
		return s.invokeReserved(call)
	}
	if s.tracer == nil {
		return s.h(s.ctx, callerPeer(call), call.Op, call.Body)
	}
	// The server span continues the trace context the OGSA router
	// lifted off the envelope's trace header into the call.
	peer := callerPeer(call)
	sp := s.tracer.StartRemote(call.Trace, "server.exchange")
	sp.SetPeer(peerDNOf(peer))
	out, err := s.h(trace.ContextWithSpan(s.ctx, sp), peer, call.Op, call.Body)
	sp.AddBytes(int64(len(call.Body)))
	sp.SetError(err)
	sp.End()
	return out, err
}

func callerPeer(call *ogsa.Call) Peer {
	return Peer{
		Anonymous:    call.Caller.Anonymous,
		Identity:     call.Caller.Name,
		Subject:      call.Caller.Name,
		LocalAccount: call.Caller.LocalAccount,
	}
}

// invokeReserved serves the transport-owned op namespace: the GT3
// stream protocol. The authorization gate has already admitted the
// call (open as the carried op; chunks by stream possession).
func (s *handlerService) invokeReserved(call *ogsa.Call) ([]byte, error) {
	switch {
	case s.sh != nil && strings.HasPrefix(call.Op, gt3StreamOpenPrefix):
		if !call.Conversation {
			return nil, errors.New("gsi: streams require a secure conversation")
		}
		op, err := decodeStreamOp(strings.TrimPrefix(call.Op, gt3StreamOpenPrefix))
		if err != nil {
			return nil, err
		}
		return s.openStream(call, op)
	case strings.HasPrefix(call.Op, gt3StreamWritePrefix):
		id := strings.TrimPrefix(call.Op, gt3StreamWritePrefix)
		st := s.reg.get(id)
		if st == nil {
			return nil, errors.New("gsi: unknown stream")
		}
		terminal, err := st.acceptIn(call.Body)
		if err != nil {
			return nil, err
		}
		if terminal && st.endHalf() {
			s.reg.remove(id)
		}
		return nil, nil
	case strings.HasPrefix(call.Op, gt3StreamReadPrefix):
		id := strings.TrimPrefix(call.Op, gt3StreamReadPrefix)
		st := s.reg.get(id)
		if st == nil {
			return nil, errors.New("gsi: unknown stream")
		}
		rec, terminal, err := st.nextOut()
		if err != nil {
			return nil, err
		}
		if terminal && st.endHalf() {
			s.reg.remove(id)
		}
		return rec, nil
	}
	return nil, fmt.Errorf("gsi: reserved op %s not found", call.Op)
}

// openStream creates the server-side stream state and runs the
// StreamHandler in its own goroutine; the handler's outcome travels to
// the client as the stream's terminal record.
func (s *handlerService) openStream(call *ogsa.Call, op string) ([]byte, error) {
	idBytes, err := newStreamID()
	if err != nil {
		return nil, err
	}
	peer := callerPeer(call)
	inR, inW := io.Pipe()
	st := &gt3ServerStream{
		id:      idBytes,
		peer:    peer,
		peerKey: peerKey(peer),
		account: call.Caller.LocalAccount,
		inR:     inR,
		inW:     inW,
		out:     make(chan []byte, 1),
		dead:    make(chan struct{}),
		ctx:     s.ctx,
	}
	st.touch()
	if err := s.reg.add(st); err != nil {
		return nil, err
	}
	handlerStream := &serverGT3Stream{s: st}
	var hstream Stream = handlerStream
	var ts *tracedStream
	if s.tracer != nil {
		// Continue the opener's trace: the span covers the handler's
		// whole run over the stream, chunks included.
		sp := s.tracer.StartRemote(call.Trace, "server.stream")
		dn := peerDNOf(peer)
		sp.SetPeer(dn)
		ts = newTracedStream(hstream, sp, "server")
		ts.xfer = s.tracer.Transfers().Begin("stream:"+op, dn, 1, sp.Context().TraceID)
		hstream = ts
	}
	go func() {
		herr := s.sh(s.ctx, peer, op, hstream)
		// Stop absorbing input and terminate the out half with the
		// handler's verdict.
		inR.CloseWithError(io.ErrClosedPipe)
		if herr != nil {
			handlerStream.closeWithError(herr.Error())
		} else {
			handlerStream.CloseWrite()
		}
		if ts != nil {
			ts.finish(herr)
		}
	}()
	return []byte(st.id), nil
}

type gt3Endpoint struct {
	url    string
	cancel context.CancelFunc
	close  func() error
}

func (e *gt3Endpoint) Addr() string { return e.url }

func (e *gt3Endpoint) Close() error {
	e.cancel()
	return e.close()
}

// --- the server-side authorization seam ----------------------------------

// exchangeResource is the resource every exchange and stream op is
// authorized against: the exchange service's OGSA handle.
const exchangeResource = "ogsa:" + exchangeHandle

// authzMode names how an endpoint decides authorization. It is resolved
// once per endpoint at Serve, never per request.
type authzMode uint8

const (
	// authzAuthenticatedOnly: no authorization is configured, so any
	// authenticated peer is permitted. Admin and CAS-publish endpoints
	// refuse this mode.
	authzAuthenticatedOnly authzMode = iota
	// authzPipeline: the chain-aware AuthorizationPipeline decides and
	// maps the peer through its gridmap.
	authzPipeline
	// authzEngine: the environment's WithAuthorizer engine decides a
	// subject/resource/action request stamped with the environment clock.
	authzEngine
)

// serverAuthorizer is the one server-side authorization seam (Figure 3,
// step 5): every GT2 exchange, stream open and striped open, and every
// GT3 call through the container's gate, is decided by one call to
// authorize. The zero value is authenticated-only.
type serverAuthorizer struct {
	mode     authzMode
	pipeline *AuthorizationPipeline // authzPipeline
	engine   Engine                 // authzEngine
	now      func() time.Time       // authzEngine
	tracer   *Tracer                // GT3: roots server.authz spans
}

// newServerAuthorizer resolves an endpoint's mode: the pipeline when one
// is configured, else the environment's engine, else authenticated-only.
func newServerAuthorizer(env *Environment, pipeline *AuthorizationPipeline, tracer *Tracer) serverAuthorizer {
	a := serverAuthorizer{tracer: tracer}
	switch {
	case pipeline != nil:
		a.mode, a.pipeline = authzPipeline, pipeline
	case env != nil && env.authorizer != nil:
		a.mode, a.engine, a.now = authzEngine, env.authorizer, env.Now
	}
	return a
}

// spanContext returns ctx carrying sp, or ctx itself when sp is nil.
func spanContext(ctx context.Context, sp *trace.Span) context.Context {
	if sp == nil {
		return ctx
	}
	return trace.ContextWithSpan(ctx, sp)
}

// authorize decides whether peer may perform action on resource. On
// permit it returns the peer carrying its gridmap LocalAccount (pipeline
// mode); on deny, an ErrUnauthorized-classified error. The decision is
// recorded as a server.authz span: a child of the span ctx carries (GT2),
// else continuing the wire trace context ctx carries (GT3).
func (a *serverAuthorizer) authorize(ctx context.Context, peer Peer, resource, action string) (Peer, error) {
	var sp *trace.Span
	if parent := trace.SpanFromContext(ctx); parent != nil {
		sp = parent.StartChild("server.authz")
	} else if a.tracer != nil {
		sp = a.tracer.StartRemote(trace.RemoteFromContext(ctx), "server.authz")
		sp.SetPeer(peerKey(peer))
	}
	peer, err := a.decide(ctx, peer, resource, action)
	sp.SetError(err)
	sp.End()
	return peer, err
}

func (a *serverAuthorizer) decide(ctx context.Context, peer Peer, resource, action string) (Peer, error) {
	switch a.mode {
	case authzPipeline:
		d, err := a.pipeline.Authorize(ctx, peer, resource, action)
		if err != nil {
			return peer, &Error{Op: "gsi.Server", Err: err}
		}
		if d.Decision != Permit {
			return peer, denied(peer, action, ": "+d.Reason)
		}
		peer.LocalAccount = d.LocalAccount
	case authzEngine:
		decision, err := a.engine.Authorize(Request{
			Subject:  peer.Identity,
			Resource: resource,
			Action:   action,
			Time:     a.now(),
		})
		if err != nil {
			return peer, &Error{Op: "gsi.Server", Err: err}
		}
		if decision != Permit {
			return peer, denied(peer, action, "")
		}
	}
	return peer, nil
}

func denied(peer Peer, action, reason string) error {
	return &Error{
		Op:   "gsi.Server",
		Kind: ErrUnauthorized,
		Err:  fmt.Errorf("gsi: %q denied %s%s", peer.Identity, action, reason),
	}
}

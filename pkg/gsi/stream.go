package gsi

import (
	"context"
	"encoding/base64"
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
)

// newStreamID mints the unguessable id a GT3 stream is addressed by.
func newStreamID() (string, error) {
	b, err := gridcrypto.RandomBytes(16)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("st-%x", b), nil
}

// Stream is a secured, unbounded byte stream bound to one session —
// the record layer's chunked mode surfaced at the facade. Data crosses
// in DefaultChunkSize records through pooled buffers; each direction
// terminates with an explicit FIN record, and a mid-stream failure
// travels as an ERROR record that surfaces on the peer as a read error.
//
// The stream owns its session until Close: on a pooling client the
// session returns to the pool only when the stream has terminated
// cleanly (a broken stream discards the session instead of parking
// it). Each half must be driven by one goroutine at a time; Close is
// required even after errors.
type Stream interface {
	// Read returns peer bytes, io.EOF after its FIN, and the peer's
	// abort reason as an error if it failed mid-stream.
	io.Reader
	// Write ships bytes as chunk records.
	io.Writer
	// CloseWrite terminates the write half cleanly (FIN). Idempotent.
	CloseWrite() error
	// Close terminates the stream: the write half is FINed if still
	// open, the unread remainder of the read half is drained so the
	// session resynchronizes, and the session is released.
	Close() error
	// Peer is the authenticated remote party.
	Peer() Peer
}

// StreamHandler serves one opened stream on a Server: by the time it
// runs, the peer is authenticated and op authorized (once per stream,
// through the authorization pipeline when one is configured).
// Returning an error aborts the stream — the client observes it as a
// mid-stream ERROR record. The handler must not retain the stream past
// its return.
type StreamHandler func(ctx context.Context, peer Peer, op string, stream Stream) error

// errStreamsUnsupported marks sessions that cannot stream.
var errStreamsUnsupported = errors.New("gsi: session does not support streams")

// OpenStream on a Client: checks a session out (from the pool on a
// pooling client), opens a stream for op on it, and binds the session's
// release to the stream's Close.
func (c *Client) OpenStream(ctx context.Context, endpoint, op string, opts ...Option) (Stream, error) {
	const opName = "gsi.Client.OpenStream"
	// The root span covers dial, open, every chunk, and Close; its
	// context crosses on the open round trip so the server's stream
	// span joins the same trace.
	var sp *trace.Span
	if tr := c.base.tracer; tr != nil {
		sp = tr.StartRoot("client.stream")
		ctx = trace.ContextWithSpan(ctx, sp)
	}
	sess, err := c.Connect(ctx, endpoint, opts...)
	if err != nil {
		sp.SetError(err)
		sp.End()
		return nil, opErr(opName, err)
	}
	st, err := sess.OpenStream(ctx, op)
	if err != nil {
		sess.Close()
		sp.SetError(err)
		sp.End()
		return nil, opErr(opName, err)
	}
	var out Stream = &ownedStream{Stream: st, sess: sess}
	if sp != nil {
		dn := peerDNOf(st.Peer())
		sp.SetPeer(dn)
		ts := newTracedStream(out, sp, "client")
		ts.xfer = c.base.tracer.Transfers().Begin("stream:"+op, dn, 1, sp.Context().TraceID)
		out = ts
	}
	return out, nil
}

// ownedStream couples a stream to the session checkout that carries it.
// closed is atomic because the docs require Close even after errors, so
// a reader and a writer goroutine can legitimately race into it.
type ownedStream struct {
	Stream
	sess   Session
	closed atomic.Bool
}

// Close terminates the stream and releases the session. Both halves can
// fail independently — a stream-side failure must not mask a pool-side
// release failure (or vice versa), so the errors are joined.
func (o *ownedStream) Close() error {
	if o.closed.Swap(true) {
		return nil
	}
	return errors.Join(o.Stream.Close(), o.sess.Close())
}

// --- GT2: chunk records on the connections' record streams -------------

// OpenStream on a GT2 session: one gsi.__stream.open round trip
// (carrying op for server-side authorization), then the connection's
// record stream belongs to the chunk protocol until both halves FIN.
// The session is locked for the stream's duration.
func (s *gt2Session) OpenStream(ctx context.Context, op string) (Stream, error) {
	const opName = "gsi.Session.OpenStream"
	if op == "" || strings.HasPrefix(op, reservedOpPrefix) {
		return nil, opErr(opName, fmt.Errorf("gsi: invalid stream op %q", op))
	}
	s.mu.Lock()
	_, buf, err := s.roundTrip(ctx, streamOpenOp, []byte(op))
	if err != nil {
		s.mu.Unlock()
		return nil, opErr(opName, err)
	}
	buf.Free()
	return newGT2Stream(ctx, []*gt2Session{s}), nil
}

// gt2Stream is the client-side GT2 Stream over K ≥ 1 sessions — one for
// OpenStream, the stripes of OpenStripedStream — each locked for the
// stream's duration. Close resynchronizes every connection before
// unlocking, then releases the checkouts the stream owns (a striped
// stream owns its stripes'), so a pooling client parks only clean
// connections.
type gt2Stream struct {
	members []*gt2Session
	owners  []Session
	r       gsitransport.Reader
	w       gsitransport.Writer
	closed  atomic.Bool
}

func newGT2Stream(ctx context.Context, members []*gt2Session) *gt2Stream {
	conns := make([]*gsitransport.Conn, len(members))
	for i, m := range members {
		conns[i] = m.conn
	}
	r, w := gsitransport.Open(ctx, conns, gsitransport.ReadHalf|gsitransport.WriteHalf)
	return &gt2Stream{members: members, r: r, w: w}
}

func (g *gt2Stream) Read(p []byte) (int, error) {
	n, err := g.r.Read(p)
	return n, streamErr(err)
}

func (g *gt2Stream) Write(p []byte) (int, error) {
	n, err := g.w.Write(p)
	return n, streamErr(err)
}

func (g *gt2Stream) CloseWrite() error { return streamErr(g.w.CloseWrite()) }

func (g *gt2Stream) Peer() Peer { return g.members[0].conn.Peer() }

// Close terminates both halves and returns the connections to
// exchange mode: FIN the write half if still open, consume the read
// half to its terminal record. Only then is each record stream at a
// frame boundary again — a failure here leaves the sessions broken,
// which a pooling client observes via the health check at release.
func (g *gt2Stream) Close() error {
	if g.closed.Swap(true) {
		return nil
	}
	err := g.w.CloseWrite()
	// A peer abort already surfaced through Read; its terminal record
	// still resynchronized the connections.
	var peerErr *record.PeerError
	if derr := g.r.Drain(); derr != nil && !errors.As(derr, &peerErr) && err == nil {
		err = derr
	}
	for _, m := range g.members {
		m.mu.Unlock()
	}
	err = streamErr(err)
	for _, o := range g.owners {
		if cerr := o.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
	}
	return err
}

// streamErr classifies stream-level failures at the facade boundary.
// io.EOF passes through untouched — it is the io.Reader contract's
// clean-termination token, not a failure.
func streamErr(err error) error {
	if err == nil || err == io.EOF {
		return err
	}
	var e *Error
	if errors.As(err, &e) {
		return err
	}
	var peerErr *record.PeerError
	if errors.As(err, &peerErr) {
		return &Error{Op: "gsi.Stream", Err: err}
	}
	return &Error{Op: "gsi.Stream", Kind: classify(err), Err: err}
}

// serverGT2Stream is the handler-facing stream over a GT2 server's
// connections. Termination and drain are owned by runGT2Stream, so
// Close here only flushes the write half.
type serverGT2Stream struct {
	r    gsitransport.Reader
	w    gsitransport.Writer
	peer Peer
}

func (s *serverGT2Stream) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	return n, streamErr(err)
}

func (s *serverGT2Stream) Write(p []byte) (int, error) {
	n, err := s.w.Write(p)
	return n, streamErr(err)
}

func (s *serverGT2Stream) CloseWrite() error { return streamErr(s.w.CloseWrite()) }
func (s *serverGT2Stream) Close() error      { return streamErr(s.w.CloseWrite()) }
func (s *serverGT2Stream) Peer() Peer        { return s.peer }

// runGT2Stream runs the StreamHandler for an opened, authorized stream
// over conns — the one connection of a stream open, or every stripe of
// a striped group — then terminates the server half (the handler's
// error travels as the ERROR record) and consumes the client half so
// every connection resynchronizes. sp, when traced, becomes the
// stream's span and the stream registers as transfer name+op. Reports
// whether the connections are still usable.
func runGT2Stream(ctx context.Context, cfg ServeConfig, conns []*gsitransport.Conn, peer Peer, op, name string, sp *trace.Span) bool {
	// Record I/O runs under Background like the exchange loop's:
	// cancellation arrives through the connection-lifetime CloseOnDone
	// watcher, not a per-record watcher goroutine.
	r, w := gsitransport.Open(context.Background(), conns, gsitransport.ReadHalf|gsitransport.WriteHalf)
	var hstream Stream = &serverGT2Stream{r: r, w: w, peer: peer}
	var ts *tracedStream
	if sp != nil {
		// The traced wrapper accounts bytes and cumulative seal/open
		// pipeline time; it ends sp (emitting the pipeline child spans)
		// when the handler is done, registering the stream as an active
		// transfer meanwhile.
		dn := peerDNOf(peer)
		sp.SetPeer(dn)
		ts = newTracedStream(hstream, sp, "server")
		ts.xfer = cfg.Tracer.Transfers().Begin(name+op, dn, len(conns), sp.Context().TraceID)
		hstream = ts
	}
	herr := cfg.StreamHandler(ctx, peer, op, hstream)
	if ts != nil {
		ts.finish(herr)
	}
	var err error
	if herr != nil {
		err = w.CloseWithError(herr.Error())
	} else {
		err = w.CloseWrite()
	}
	if err != nil {
		r.Abort()
		return false
	}
	// A client-side abort is a clean termination too.
	var peerErr *record.PeerError
	err = r.Drain()
	return err == nil || errors.As(err, &peerErr)
}

// --- GT3: chunk records as conversation calls ---------------------------
//
// GT3 has no connection to own, so a stream is a server-side resource:
// gsi.__stream.open:<op> creates it (authorized as <op> through the
// container's chain gate — once per stream), returning an unguessable
// stream id. Chunks then travel as calls through the same secure
// conversation: gsi.__stream.w:<id> carries a client chunk record,
// gsi.__stream.r:<id> returns the next server chunk record. The chunk
// records themselves — sequence binding, FIN, ERROR — are exactly the
// GT2 ones; only the carriage differs, which is the paper's §5.1 story
// retold for bulk data.

const (
	gt3StreamOpenPrefix  = streamOpenOp + ":"
	gt3StreamWritePrefix = reservedOpPrefix + "stream.w:"
	gt3StreamReadPrefix  = reservedOpPrefix + "stream.r:"
)

// encodeStreamOp renders an application op for carriage in a GT3
// action suffix. Ops are arbitrary strings — a '/' would collide with
// the container's handle/op routing — so the base64url alphabet
// (slash-free) carries them.
func encodeStreamOp(op string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(op))
}

func decodeStreamOp(enc string) (string, error) {
	b, err := base64.RawURLEncoding.DecodeString(enc)
	if err != nil {
		return "", fmt.Errorf("gsi: malformed stream op encoding denied: %w", err)
	}
	return string(b), nil
}

// OpenStream on a GT3 session.
func (s *gt3Session) OpenStream(ctx context.Context, op string) (Stream, error) {
	const opName = "gsi.Session.OpenStream"
	if op == "" || strings.HasPrefix(op, reservedOpPrefix) {
		return nil, opErr(opName, fmt.Errorf("gsi: invalid stream op %q", op))
	}
	id, err := s.invoke(ctx, exchangeHandle, gt3StreamOpenPrefix+encodeStreamOp(op), nil)
	if err != nil {
		return nil, opErr(opName, err)
	}
	if len(id) == 0 {
		return nil, opErr(opName, errors.New("gsi: stream open returned no id"))
	}
	return &gt3Stream{sess: s, ctx: ctx, id: string(id)}, nil
}

type gt3Stream struct {
	sess   *gt3Session
	ctx    context.Context
	id     string
	sender record.ChunkSender
	asm    record.Assembler
	rbuf   []byte // unread remainder of the last server chunk
	rerr   error
	closed bool
}

func (g *gt3Stream) sendChunk(build func([]byte) ([]byte, error)) error {
	rec, err := build(nil)
	if err != nil {
		return streamErr(err)
	}
	if _, err := g.sess.invoke(g.ctx, exchangeHandle, gt3StreamWritePrefix+g.id, rec); err != nil {
		return streamErr(err)
	}
	return nil
}

func (g *gt3Stream) Write(p []byte) (int, error) {
	if g.sender.Terminated() {
		return 0, streamErr(gsitransport.ErrWriteHalfClosed)
	}
	written := 0
	for written < len(p) {
		piece := p[written:]
		if len(piece) > record.DefaultChunkSize {
			piece = piece[:record.DefaultChunkSize]
		}
		if err := g.sendChunk(func(dst []byte) ([]byte, error) {
			return g.sender.AppendData(dst, piece)
		}); err != nil {
			return written, err
		}
		written += len(piece)
	}
	return written, nil
}

func (g *gt3Stream) CloseWrite() error {
	if g.sender.Terminated() {
		return nil
	}
	return g.sendChunk(g.sender.AppendFIN)
}

func (g *gt3Stream) Read(p []byte) (int, error) {
	for {
		if len(g.rbuf) > 0 {
			n := copy(p, g.rbuf)
			g.rbuf = g.rbuf[n:]
			return n, nil
		}
		if g.rerr != nil {
			return 0, g.rerr
		}
		if len(p) == 0 {
			return 0, nil
		}
		rec, err := g.sess.invoke(g.ctx, exchangeHandle, gt3StreamReadPrefix+g.id, nil)
		if err != nil {
			g.rerr = streamErr(err)
			return 0, g.rerr
		}
		payload, fin, err := g.asm.Accept(rec)
		switch {
		case err != nil:
			g.rerr = streamErr(err)
			return 0, g.rerr
		case fin:
			g.rerr = io.EOF
			return 0, io.EOF
		default:
			g.rbuf = payload // reply bodies are owned, not pooled
		}
	}
}

func (g *gt3Stream) Peer() Peer { return g.sess.conv.Peer() }

func (g *gt3Stream) Close() error {
	if g.closed {
		return nil
	}
	g.closed = true
	var firstErr error
	if err := g.CloseWrite(); err != nil {
		firstErr = err
	}
	// Drain the server half so its registry entry retires.
	var scratch [4096]byte
	for firstErr == nil {
		if _, err := g.Read(scratch[:]); err != nil {
			if err != io.EOF {
				var peerErr *record.PeerError
				if !errors.As(err, &peerErr) {
					firstErr = err
				}
			}
			break
		}
	}
	return firstErr
}

// gt3SignedSession has no security context to stream under: each signed
// message stands alone, so chunked streaming is refused.
func (s *gt3SignedSession) OpenStream(ctx context.Context, op string) (Stream, error) {
	return nil, opErr("gsi.Session.OpenStream", fmt.Errorf("%w: ProtectionSigned sessions sign stateless messages", errStreamsUnsupported))
}

// --- GT3 server side -----------------------------------------------------

// gt3StreamRegistry holds the server-side state of open GT3 streams,
// keyed by their unguessable ids.
type gt3StreamRegistry struct {
	mu      sync.Mutex
	streams map[string]*gt3ServerStream
}

func newGT3StreamRegistry() *gt3StreamRegistry {
	return &gt3StreamRegistry{streams: make(map[string]*gt3ServerStream)}
}

// maxGT3Streams bounds concurrently open server-side streams.
const maxGT3Streams = 1024

// gt3StreamIdleLimit reaps streams whose client vanished mid-protocol.
const gt3StreamIdleLimit = 5 * time.Minute

func (r *gt3StreamRegistry) add(s *gt3ServerStream) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	for id, old := range r.streams {
		if now.Sub(old.lastActive()) > gt3StreamIdleLimit {
			old.abandon()
			delete(r.streams, id)
		}
	}
	if len(r.streams) >= maxGT3Streams {
		return errors.New("gsi: too many open streams")
	}
	r.streams[s.id] = s
	return nil
}

func (r *gt3StreamRegistry) get(id string) *gt3ServerStream {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.streams[id]
}

func (r *gt3StreamRegistry) remove(id string) {
	r.mu.Lock()
	delete(r.streams, id)
	r.mu.Unlock()
}

// peerKey renders the identity a stream is bound to: chunk calls must
// arrive from the same authenticated party that opened the stream.
func peerKey(p Peer) string {
	if p.Anonymous {
		return "anonymous"
	}
	return p.Identity.String()
}

// gt3ServerStream is one open stream's server-side state.
type gt3ServerStream struct {
	id      string
	peer    Peer
	peerKey string
	account string

	// Client -> handler: chunk payloads flow through a pipe so the w:
	// call blocks while the handler catches up (backpressure).
	inR *io.PipeReader
	inW *io.PipeWriter

	inMu  sync.Mutex // serializes w: calls
	inAsm record.Assembler

	// Handler -> client: chunk records popped by r: calls.
	out chan []byte

	// dead releases everything blocked on the stream when the registry
	// reaps it (client vanished mid-protocol).
	dead     chan struct{}
	deadOnce sync.Once

	halvesEnded atomic.Int32 // see endHalf

	ctx    context.Context // serve lifetime
	active int64           // unix nanos of last chunk call (atomic via mutex below)
	actMu  sync.Mutex
}

func (s *gt3ServerStream) touch() {
	s.actMu.Lock()
	s.active = time.Now().UnixNano()
	s.actMu.Unlock()
}

func (s *gt3ServerStream) lastActive() time.Time {
	s.actMu.Lock()
	defer s.actMu.Unlock()
	return time.Unix(0, s.active)
}

// abandon releases a reaped stream: the handler's reads fail, and its
// writes — including the goroutine parked pushing the terminal record
// no client will ever poll — stop blocking.
func (s *gt3ServerStream) abandon() {
	s.inW.CloseWithError(errors.New("gsi: stream abandoned by peer"))
	s.inR.CloseWithError(errors.New("gsi: stream abandoned by peer"))
	s.deadOnce.Do(func() { close(s.dead) })
}

// endHalf records that one direction delivered its terminal record and
// reports whether both have. The stream id retires only then: a client
// that read the server half to EOF still sends its closing FIN under it.
func (s *gt3ServerStream) endHalf() bool { return s.halvesEnded.Add(1) == 2 }

// acceptIn processes one client chunk record and reports whether it
// terminated the client half.
func (s *gt3ServerStream) acceptIn(rec []byte) (bool, error) {
	s.touch()
	s.inMu.Lock()
	defer s.inMu.Unlock()
	payload, fin, err := s.inAsm.Accept(rec)
	if err != nil {
		var peerErr *record.PeerError
		if errors.As(err, &peerErr) {
			// Clean client abort: surface to the handler as a read error.
			s.inW.CloseWithError(peerErr)
			return true, nil
		}
		return false, err
	}
	if fin {
		return true, s.inW.Close()
	}
	if len(payload) > 0 {
		// A handler that returned early closed the read end; remaining
		// client chunks are validated, then discarded.
		if _, err := s.inW.Write(payload); err != nil && !errors.Is(err, io.ErrClosedPipe) {
			var perr *record.PeerError
			if !errors.As(err, &perr) {
				return false, err
			}
		}
	}
	return false, nil
}

// nextOut blocks for the next server chunk record.
func (s *gt3ServerStream) nextOut() ([]byte, bool, error) {
	s.touch()
	select {
	case rec := <-s.out:
		typ, _, _, err := record.ParseChunk(rec)
		terminal := err == nil && (typ == record.ChunkFIN || typ == record.ChunkError)
		return rec, terminal, nil
	case <-s.dead:
		return nil, false, errors.New("gsi: stream abandoned")
	case <-s.ctx.Done():
		return nil, false, s.ctx.Err()
	}
}

// serverGT3Stream is the handler-facing Stream of a GT3 stream.
type serverGT3Stream struct {
	s      *gt3ServerStream
	sender record.ChunkSender
}

func (h *serverGT3Stream) Read(p []byte) (int, error) {
	n, err := h.s.inR.Read(p)
	return n, streamErr(err)
}

func (h *serverGT3Stream) push(rec []byte) error {
	select {
	case h.s.out <- rec:
		return nil
	case <-h.s.dead:
		return streamErr(errors.New("gsi: stream abandoned"))
	case <-h.s.ctx.Done():
		return streamErr(h.s.ctx.Err())
	}
}

func (h *serverGT3Stream) Write(p []byte) (int, error) {
	if h.sender.Terminated() {
		return 0, streamErr(gsitransport.ErrWriteHalfClosed)
	}
	written := 0
	for written < len(p) {
		piece := p[written:]
		if len(piece) > record.DefaultChunkSize {
			piece = piece[:record.DefaultChunkSize]
		}
		rec, err := h.sender.AppendData(nil, piece)
		if err != nil {
			return written, streamErr(err)
		}
		if err := h.push(rec); err != nil {
			return written, err
		}
		written += len(piece)
	}
	return written, nil
}

func (h *serverGT3Stream) CloseWrite() error {
	if h.sender.Terminated() {
		return nil
	}
	rec, err := h.sender.AppendFIN(nil)
	if err != nil {
		return streamErr(err)
	}
	return h.push(rec)
}

func (h *serverGT3Stream) closeWithError(msg string) error {
	if h.sender.Terminated() {
		return nil
	}
	rec, err := h.sender.AppendError(nil, msg)
	if err != nil {
		return streamErr(err)
	}
	return h.push(rec)
}

func (h *serverGT3Stream) Close() error { return h.CloseWrite() }
func (h *serverGT3Stream) Peer() Peer   { return h.s.peer }

// --- GT3 authorization gate ----------------------------------------------

// gt3AuthGate is the container's chain-authorization hook with stream
// awareness: stream opens are authorized as the op they carry (once per
// stream), chunk calls are admitted by possession of a live stream id
// bound to the same authenticated peer, and every other call is decided
// by the endpoint's authorization seam.
type gt3AuthGate struct {
	authorizer serverAuthorizer
	reg        *gt3StreamRegistry
}

func (g *gt3AuthGate) AuthorizeChain(ctx context.Context, peer Peer, resource, action string) (string, error) {
	if enc, ok := strings.CutPrefix(action, gt3StreamOpenPrefix); ok {
		op, err := decodeStreamOp(enc)
		if err != nil {
			return "", err
		}
		if op == "" || strings.HasPrefix(op, reservedOpPrefix) {
			return "", fmt.Errorf("gsi: invalid stream op %q denied", op)
		}
		action = op // authorized as the op the stream carries
	} else {
		id, isChunk := strings.CutPrefix(action, gt3StreamWritePrefix)
		if !isChunk {
			id, isChunk = strings.CutPrefix(action, gt3StreamReadPrefix)
		}
		if isChunk {
			st := g.reg.get(id)
			if st == nil || st.peerKey != peerKey(peer) {
				return "", errors.New("gsi: unknown stream denied")
			}
			// Authorization was decided at open; the stream carries it.
			return st.account, nil
		}
	}
	authorized, err := g.authorizer.authorize(ctx, peer, resource, action)
	return authorized.LocalAccount, err
}

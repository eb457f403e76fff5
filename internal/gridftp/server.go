package gridftp

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"

	"repro/internal/gridcert"
	"repro/internal/gsitransport"
	"repro/internal/gss"
	"repro/internal/proxy"
	"repro/internal/record"
	"repro/internal/trace"
)

// Server is a GridFTP endpoint: a secured listener in front of a Store.
type Server struct {
	store    *Store
	cred     *gridcert.Credential
	trust    *gridcert.TrustStore
	listener *gsitransport.Listener

	mu      sync.Mutex
	served  int
	closing bool

	// stripes collects the data connections of striped transfers.
	stripes gsitransport.Rendezvous

	// tracer, when set via SetTracer, spans every transfer and feeds
	// the active-transfer registry. Nil disables.
	tracer *trace.Tracer
}

// NewServer starts a GridFTP server on addr ("127.0.0.1:0" for tests).
func NewServer(addr string, store *Store, cred *gridcert.Credential, trust *gridcert.TrustStore) (*Server, error) {
	inner, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		store: store,
		cred:  cred,
		trust: trust,
		listener: gsitransport.NewListener(inner, gss.Config{
			Credential: cred,
			TrustStore: trust,
		}),
	}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Identity returns the server's host identity.
func (s *Server) Identity() gridcert.Name { return s.cred.Leaf().Subject }

// Served reports how many connections completed the handshake.
func (s *Server) Served() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served
}

// Close stops the server.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
	return s.listener.Close()
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			s.mu.Lock()
			closing := s.closing
			s.mu.Unlock()
			if closing {
				return
			}
			continue // failed handshake; keep serving
		}
		s.mu.Lock()
		s.served++
		s.mu.Unlock()
		go s.serve(conn)
	}
}

func (s *Server) serve(conn *gsitransport.Conn) {
	defer conn.Close()
	ctx := context.Background()
	identity := conn.Peer().Identity
	for {
		msg, err := conn.Receive()
		if err != nil {
			return
		}
		verb, path, payload, err := decodeCmd(msg)
		if err != nil {
			conn.Send(encodeReply(opErr, "", []byte(err.Error())))
			return
		}
		payload, rctx := splitTrace(verb, payload)
		switch verb {
		case opGetS:
			if !s.serveGet(ctx, conn, identity, path, payload, rctx) {
				return
			}
		case opPutS:
			if !s.servePut(ctx, conn, identity, path, payload, rctx) {
				return
			}
		case opJoin:
			if !s.serveJoin(conn, identity, payload, rctx) {
				return
			}
		default:
			if err := conn.Send(s.execute(identity, verb, path, payload)); err != nil {
				return
			}
		}
	}
}

// serveGet answers a streamed GET: acknowledge, then send the file as
// chunk records straight out of the store (the seal is the only pass
// over the data). A stripe-marked payload diverts to the parallel
// striped path. Returns false when the connection is unusable.
func (s *Server) serveGet(ctx context.Context, conn *gsitransport.Conn, identity gridcert.Name, path string, payload []byte, rctx trace.SpanContext) bool {
	if k, ok := decodeStripeGetReq(payload); ok {
		return s.serveGetStriped(ctx, conn, identity, path, k, rctx)
	}
	sp := s.tracer.StartRemote(rctx, "gridftp.server.get")
	sp.SetPeer(identity.String())
	data, err := s.store.Open(identity, path)
	if err != nil {
		sp.SetError(err)
		sp.End()
		return conn.Send(encodeReply(opErr, path, []byte(err.Error()))) == nil
	}
	xfer := s.tracer.Transfers().Begin("get:"+path, identity.String(), 1, sp.Context().TraceID)
	done := func(err error) bool {
		sp.SetError(err)
		sp.End()
		xfer.End()
		return err == nil
	}
	if err := conn.Send(encodeReply(opOK, path, nil)); err != nil {
		return done(err)
	}
	st := gsitransport.NewStream(ctx, conn)
	if _, err := st.Write(data); err != nil {
		// Mid-stream store-side failures would abort via CloseWithError;
		// a transport failure here already broke the connection.
		st.CloseWithError(err.Error())
		return done(err)
	}
	sp.AddBytes(int64(len(data)))
	xfer.Add(int64(len(data)))
	return done(st.CloseWrite())
}

// servePut answers a streamed PUT: authorize before inviting any data,
// acknowledge, assemble the inbound chunks, and confirm. The command
// payload may carry an 8-byte size hint used to pre-size the assembly
// (bounded — a lying hint degrades to incremental growth, never to an
// oversized trust-the-peer allocation). Returns false when the
// connection is unusable.
func (s *Server) servePut(ctx context.Context, conn *gsitransport.Conn, identity gridcert.Name, path string, payload []byte, rctx trace.SpanContext) bool {
	if k, hint, ok := decodeStripePutReq(payload); ok {
		return s.servePutStriped(ctx, conn, identity, path, k, hint, rctx)
	}
	sp := s.tracer.StartRemote(rctx, "gridftp.server.put")
	sp.SetPeer(identity.String())
	// Fail-closed before the client ships a byte.
	if err := s.store.authorize(identity, path, "write"); err != nil {
		sp.SetError(err)
		sp.End()
		return conn.Send(encodeReply(opErr, path, []byte(err.Error()))) == nil
	}
	var hint int64
	if len(payload) == 8 {
		hint = int64(binary.BigEndian.Uint64(payload))
	}
	xfer := s.tracer.Transfers().Begin("put:"+path, identity.String(), 1, sp.Context().TraceID)
	done := func(err error) {
		sp.SetError(err)
		sp.End()
		xfer.End()
	}
	st := gsitransport.NewStream(ctx, conn)
	if err := conn.Send(encodeReply(opOK, path, nil)); err != nil {
		done(err)
		return false
	}
	assembled, err := readAllStream(st, hint)
	if err != nil {
		done(err)
		var peerErr *record.PeerError
		if errors.As(err, &peerErr) {
			// Clean client abort: the terminal record resynchronized the
			// stream; report and keep serving.
			return conn.Send(encodeReply(opErr, path, []byte(peerErr.Msg))) == nil
		}
		return false
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

// maxPutPrealloc caps how much memory a declared size hint may reserve
// up front; larger (or lying) hints grow incrementally past it.
const maxPutPrealloc = 256 << 20

// transferCopyBuffer sizes the relay buffer for streamed copies. It
// matches the stream layer's bulk-write threshold so each relay write
// takes the pipelined seal path instead of sealing chunk by chunk.
const transferCopyBuffer = 4 * record.DefaultChunkSize

// readAllStream assembles a whole inbound stream through the stream's
// pipelined receive path (the open worker overlaps with assembly). A
// trusted-bounded size hint pre-sizes the buffer so well-declared
// transfers never pay a growth copy; lying hints degrade to amortized
// growth, never to an oversized trust-the-peer allocation.
func readAllStream(st *gsitransport.Stream, hint int64) ([]byte, error) {
	prealloc := int64(1 << 20)
	if hint > prealloc {
		prealloc = min(hint, maxPutPrealloc)
	}
	return st.ReadAll(int(prealloc))
}

func (s *Server) execute(identity gridcert.Name, verb, path string, payload []byte) []byte {
	switch verb {
	case opDel:
		if err := s.store.Delete(identity, path); err != nil {
			return encodeReply(opErr, path, []byte(err.Error()))
		}
		return encodeReply(opOK, path, nil)
	case opList:
		names, err := s.store.List(identity, path)
		if err != nil {
			return encodeReply(opErr, path, []byte(err.Error()))
		}
		return encodeReply(opOK, path, []byte(strings.Join(names, "\n")))
	default:
		return encodeReply(opErr, path, []byte("unknown verb "+verb))
	}
}

// Client is a GridFTP client session. The dial parameters are retained
// so striped transfers can open matching data connections.
type Client struct {
	conn       *gsitransport.Conn
	cred       *gridcert.Credential
	trust      *gridcert.TrustStore
	addr       string
	expectHost gridcert.Name
	tracer     *trace.Tracer // nil disables tracing (SetTracer)
}

// Dial connects and authenticates to a GridFTP server.
func Dial(addr string, cred *gridcert.Credential, trust *gridcert.TrustStore, expectHost gridcert.Name) (*Client, error) {
	conn, err := gsitransport.Dial(addr, gss.Config{
		Credential:   cred,
		TrustStore:   trust,
		ExpectedPeer: expectHost,
	})
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, cred: cred, trust: trust, addr: addr, expectHost: expectHost}, nil
}

// Close ends the session.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) roundTrip(verb, path string, payload []byte) ([]byte, error) {
	msg, err := encodeCmd(verb, path, payload)
	if err != nil {
		return nil, err
	}
	if err := c.conn.Send(msg); err != nil {
		return nil, err
	}
	return c.readReply()
}

// GetReader is an in-flight streamed GET: an io.ReadCloser delivering
// the file as its chunks arrive. Close before issuing further commands
// on the same client.
type GetReader struct {
	st   *gsitransport.Stream
	err  error
	sp   *trace.Span     // nil when untraced
	xfer *trace.Transfer // nil when untraced
}

// Read returns file bytes, io.EOF at the end of a complete transfer,
// and the server's abort reason if it failed mid-stream.
func (g *GetReader) Read(p []byte) (int, error) {
	n, err := g.st.Read(p)
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

// finishTrace ends the span and transfer registration exactly once.
func (g *GetReader) finishTrace() {
	g.sp.SetError(g.err)
	g.sp.End()
	g.xfer.End()
	g.sp, g.xfer = nil, nil
}

// Close drains any unread remainder so the session is reusable.
func (g *GetReader) Close() error {
	defer g.finishTrace()
	if g.err != nil {
		g.st.Release()
		return nil // already failed; connection state is settled
	}
	return g.st.Drain()
}

// GetStream starts a streamed GET of path.
func (c *Client) GetStream(path string) (*GetReader, error) {
	sp := c.tracer.StartRoot("gridftp.get")
	sp.SetPeer(c.expectHost.String())
	if _, err := c.roundTrip(opGetS, path, traceSuffix(sp, nil)); err != nil {
		sp.SetError(err)
		sp.End()
		return nil, err
	}
	return &GetReader{
		st:   gsitransport.NewStream(context.Background(), c.conn),
		sp:   sp,
		xfer: c.tracer.Transfers().Begin("get:"+path, c.expectHost.String(), 1, sp.Context().TraceID),
	}, nil
}

// GetTo fetches path, writing the content to w as it arrives, and
// returns the byte count.
func (c *Client) GetTo(path string, w io.Writer) (int64, error) {
	g, err := c.GetStream(path)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(w, g)
	if cerr := g.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return n, err
}

// Get fetches a file into memory through the pipelined receive path.
func (c *Client) Get(path string) ([]byte, error) {
	g, err := c.GetStream(path)
	if err != nil {
		return nil, err
	}
	data, err := g.st.ReadAll(0)
	if err != nil {
		g.err = err
		g.st.Release()
		g.finishTrace()
		var peerErr *record.PeerError
		if errors.As(err, &peerErr) {
			return nil, fmt.Errorf("gridftp: server: %s", peerErr.Msg)
		}
		return nil, err
	}
	g.sp.AddBytes(int64(len(data)))
	g.xfer.Add(int64(len(data)))
	g.finishTrace()
	return data, nil
}

// PutWriter is an in-flight streamed PUT: an io.WriteCloser whose Close
// completes the transfer and returns the server's verdict. Abort
// cancels mid-stream. Finish (Close or Abort) before issuing further
// commands on the same client.
type PutWriter struct {
	c    *Client
	st   *gsitransport.Stream
	done bool
	sp   *trace.Span     // nil when untraced
	xfer *trace.Transfer // nil when untraced
}

// Write ships file bytes as chunk records.
func (w *PutWriter) Write(p []byte) (int, error) {
	n, err := w.st.Write(p)
	if n > 0 {
		w.sp.AddBytes(int64(n))
		w.xfer.Add(int64(n))
	}
	return n, err
}

func (w *PutWriter) finishTrace(err error) {
	w.sp.SetError(err)
	w.sp.End()
	w.xfer.End()
	w.sp, w.xfer = nil, nil
}

// Close sends FIN and waits for the server's confirmation.
func (w *PutWriter) Close() error {
	if w.done {
		return nil
	}
	w.done = true
	defer w.st.Release()
	if err := w.st.CloseWrite(); err != nil {
		w.finishTrace(err)
		return err
	}
	_, err := w.c.readReply()
	w.finishTrace(err)
	return err
}

// Abort cancels the transfer mid-stream: the server discards the
// partial file and the session stays usable.
func (w *PutWriter) Abort(reason string) error {
	if w.done {
		return nil
	}
	w.done = true
	defer w.st.Release()
	w.finishTrace(errors.New(reason))
	if err := w.st.CloseWithError(reason); err != nil {
		return err
	}
	// The server acknowledges the abort with its ERR reply.
	if _, err := w.c.readReply(); err == nil {
		return errors.New("gridftp: server confirmed an aborted transfer")
	}
	return nil
}

// readReply consumes one OK/ERR control message.
func (c *Client) readReply() ([]byte, error) {
	msg, err := c.conn.Receive()
	if err != nil {
		return nil, err
	}
	rverb, _, rpayload, err := decodeCmd(msg)
	if err != nil {
		return nil, err
	}
	if rverb == opErr {
		return nil, fmt.Errorf("gridftp: server: %s", rpayload)
	}
	return rpayload, nil
}

// PutStream starts a streamed PUT to path. The server authorizes the
// write before any data flows. sizeHint, when positive, lets the
// server pre-size its assembly; 0 means unknown.
func (c *Client) PutStream(path string, sizeHint int64) (*PutWriter, error) {
	var payload []byte
	if sizeHint > 0 {
		payload = binary.BigEndian.AppendUint64(nil, uint64(sizeHint))
	}
	sp := c.tracer.StartRoot("gridftp.put")
	sp.SetPeer(c.expectHost.String())
	if _, err := c.roundTrip(opPutS, path, traceSuffix(sp, payload)); err != nil {
		sp.SetError(err)
		sp.End()
		return nil, err
	}
	return &PutWriter{
		c:    c,
		st:   gsitransport.NewStream(context.Background(), c.conn),
		sp:   sp,
		xfer: c.tracer.Transfers().Begin("put:"+path, c.expectHost.String(), 1, sp.Context().TraceID),
	}, nil
}

// PutFrom stores r's content at path, streaming as it reads, and
// returns the byte count. Readers that know their length (bytes.Reader,
// strings.Reader, os.File via Seek-implemented Len) declare it so the
// server assembles without growth copies. A read failure aborts the
// transfer so the server discards the partial file.
func (c *Client) PutFrom(path string, r io.Reader) (int64, error) {
	var hint int64
	if l, ok := r.(interface{ Len() int }); ok {
		hint = int64(l.Len())
	}
	w, err := c.PutStream(path, hint)
	if err != nil {
		return 0, err
	}
	buf := record.Get(transferCopyBuffer)
	n, err := io.CopyBuffer(w, r, buf.B[:transferCopyBuffer])
	buf.Free()
	if err != nil {
		w.Abort(err.Error())
		return n, err
	}
	return n, w.Close()
}

// Put stores a file from memory.
func (c *Client) Put(path string, data []byte) error {
	w, err := c.PutStream(path, int64(len(data)))
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	return w.Close()
}

// Delete removes a file.
func (c *Client) Delete(path string) error {
	_, err := c.roundTrip(opDel, path, nil)
	return err
}

// List enumerates a prefix.
func (c *Client) List(prefix string) ([]string, error) {
	out, err := c.roundTrip(opList, prefix, nil)
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, nil
	}
	return strings.Split(string(out), "\n"), nil
}

// ThirdPartyTransfer orchestrates src→dst copy of path on the client's
// authority: the client delegates a proxy to the source server, which
// then authenticates to the destination *as the client* and pushes the
// file. This is GSI delegation doing its canonical job.
//
// The copy is streamed end to end — source chunks flow into destination
// chunks through one transfer-sized buffer, never materializing the
// file — so third-party moves are unbounded too.
//
// In this in-process reproduction the "source server side" runs in this
// function with the delegated credential, exactly as the source host
// would.
func ThirdPartyTransfer(client *gridcert.Credential, trust *gridcert.TrustStore,
	srcAddr string, srcHost gridcert.Name,
	dstAddr string, dstHost gridcert.Name,
	srcPath, dstPath string) error {

	// 1. The client connects to the source and fetches nothing itself —
	// it delegates. (Delegation rides the established secure channel in
	// real GridFTP; here we run the exchange directly.)
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

	// 2. The source (acting with the delegated credential) streams the
	// file from itself into the destination as the client.
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

	get, err := srcConn.GetStream(srcPath)
	if err != nil {
		return err
	}
	put, err := dstConn.PutStream(dstPath, 0)
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

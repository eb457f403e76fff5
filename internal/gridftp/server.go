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

// serveGet answers a GET: send the file as chunk records straight out
// of the store (the seal is the only pass over the data) across the
// command's data connections. Returns false when the control
// connection is unusable.
func (s *Server) serveGet(ctx context.Context, conn *gsitransport.Conn, identity gridcert.Name, path string, payload []byte, rctx trace.SpanContext) bool {
	sp := s.tracer.StartRemote(rctx, "gridftp.server.get")
	sp.SetPeer(identity.String())
	data, err := s.store.Open(identity, path)
	if err != nil {
		sp.SetError(err)
		sp.End()
		return conn.Send(encodeReply(opErr, path, []byte(err.Error()))) == nil
	}
	stripes := 0
	if k, ok := decodeStripeGetReq(payload); ok {
		stripes = clampStripes(k)
	}
	conns, release, ok := s.dataConns(conn, identity, path, stripes, uint64(len(data)), sp)
	if conns == nil {
		sp.End()
		return ok
	}
	defer release()
	xfer := s.tracer.Transfers().Begin("get:"+path, identity.String(), len(conns), sp.Context().TraceID)
	defer xfer.End()
	defer sp.End()
	_, w := gsitransport.Open(ctx, conns, gsitransport.WriteHalf)
	if _, err := w.Write(data); err != nil {
		// A transport failure here already broke its connection.
		sp.SetError(err)
		w.CloseWithError(err.Error())
		return !conn.Broken()
	}
	sp.AddBytes(int64(len(data)))
	xfer.Add(int64(len(data)))
	sp.SetError(w.CloseWrite())
	return !conn.Broken()
}

// servePut answers a PUT: authorize before inviting any data, accept,
// assemble the inbound chunks, and send the verdict on the control
// connection. The command payload may declare the file size, used to
// pre-size the assembly. Returns false when the control connection is
// unusable.
func (s *Server) servePut(ctx context.Context, conn *gsitransport.Conn, identity gridcert.Name, path string, payload []byte, rctx trace.SpanContext) bool {
	sp := s.tracer.StartRemote(rctx, "gridftp.server.put")
	sp.SetPeer(identity.String())
	// Fail-closed before the client ships a byte.
	if err := s.store.authorize(identity, path, "write"); err != nil {
		sp.SetError(err)
		sp.End()
		return conn.Send(encodeReply(opErr, path, []byte(err.Error()))) == nil
	}
	stripes, hint := 0, uint64(0)
	if k, h, ok := decodeStripePutReq(payload); ok {
		stripes, hint = clampStripes(k), h
	} else if len(payload) == 8 {
		hint = binary.BigEndian.Uint64(payload)
	}
	conns, release, ok := s.dataConns(conn, identity, path, stripes, 0, sp)
	if conns == nil {
		sp.End()
		return ok
	}
	xfer := s.tracer.Transfers().Begin("put:"+path, identity.String(), len(conns), sp.Context().TraceID)
	done := func(err error) {
		sp.SetError(err)
		sp.End()
		xfer.End()
	}
	r, _ := gsitransport.Open(ctx, conns, gsitransport.ReadHalf)
	assembled, err := r.ReadAll(putPrealloc(hint))
	r.Drain() // resynchronizes every data connection, or aborts the transfer
	release()
	if err != nil {
		done(err)
		msg := err.Error()
		var peerErr *record.PeerError
		if errors.As(err, &peerErr) {
			// Clean client abort: the terminal record resynchronized the
			// stream; report and keep serving.
			msg = peerErr.Msg
		}
		// On a broken control connection the send fails and ends it.
		return conn.Send(encodeReply(opErr, path, []byte(msg))) == nil
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

// putPrealloc sizes a PUT's assembly buffer from the declared size, so
// well-declared transfers never pay a growth copy while a lying hint
// degrades to amortized growth, never to an oversized trust-the-peer
// allocation.
func putPrealloc(hint uint64) int {
	return int(min(max(hint, 1<<20), maxPutPrealloc))
}

// transferCopyBuffer sizes the relay buffer for streamed copies. It
// matches the stream layer's bulk-write threshold so each relay write
// takes the pipelined seal path instead of sealing chunk by chunk.
const transferCopyBuffer = 4 * record.DefaultChunkSize

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

// transfer is the client side of one accepted GETS/PUTS: the stripes
// joined for it, if any, and its trace.
type transfer struct {
	joined []*gsitransport.Conn // nil when the control connection carries the file
	sp     *trace.Span          // nil when untraced
	lanes  []*trace.Span        // per-stripe children of sp
	xfer   *trace.Transfer      // nil when untraced
}

// open sends a GETS/PUTS command for path and gathers the connections
// its file crosses: the control connection for an unmarked command
// (stripes ≤ 0), or the stripes the server grants, dialed and joined.
// size is the file size a GET grant announces.
func (c *Client) open(verb, path string, stripes int, req []byte) (t transfer, conns []*gsitransport.Conn, size int64, err error) {
	op, name := "gridftp.get", "get:"
	if verb == opPutS {
		op, name = "gridftp.put", "put:"
	}
	t.sp = c.tracer.StartRoot(op)
	t.sp.SetPeer(c.expectHost.String())
	grant, err := c.roundTrip(verb, path, traceSuffix(t.sp, req))
	if err == nil && stripes > 0 {
		var granted int
		var token []byte
		if granted, size, token, err = decodeStripeGrant(grant); err == nil {
			t.joined, t.lanes, err = c.dialStripes(granted, token, t.sp)
		}
	}
	if err != nil {
		t.sp.SetError(err)
		t.sp.End()
		return transfer{}, nil, 0, err
	}
	conns = t.joined
	if conns == nil {
		conns = []*gsitransport.Conn{c.conn}
	}
	t.xfer = c.tracer.Transfers().Begin(name+path, c.expectHost.String(), len(conns), t.sp.Context().TraceID)
	return t, conns, size, nil
}

func (t *transfer) add(n int) {
	if n > 0 {
		t.sp.AddBytes(int64(n))
		t.xfer.Add(int64(n))
	}
}

// end closes the joined stripes (they are transfer-scoped) and ends the
// lanes, the root span and the transfer registration, exactly once.
func (t *transfer) end(err error) {
	for _, dc := range t.joined {
		dc.Close()
	}
	for _, lane := range t.lanes {
		lane.End()
	}
	t.sp.SetError(err)
	t.sp.End()
	t.xfer.End()
	*t = transfer{}
}

// serverAbort renders a server's mid-stream abort the way the control
// protocol renders its refusals.
func serverAbort(err error) error {
	var peerErr *record.PeerError
	if errors.As(err, &peerErr) {
		return fmt.Errorf("gridftp: server: %s", peerErr.Msg)
	}
	return err
}

// GetReader is an in-flight GET: an io.ReadCloser delivering the file
// in order as its chunks arrive, over the control connection or over
// parallel stripes. Close before issuing further commands on the same
// client.
type GetReader struct {
	transfer
	r    gsitransport.Reader
	size int64
	err  error
}

// Size is the file size a striped GET's grant announced; 0 otherwise.
func (g *GetReader) Size() int64 { return g.size }

// Read returns file bytes, io.EOF at the end of a complete transfer,
// and the server's abort reason if it failed mid-stream.
func (g *GetReader) Read(p []byte) (int, error) {
	n, err := g.r.Read(p)
	err = serverAbort(err)
	if err != nil && err != io.EOF {
		g.err = err
	}
	g.add(n)
	return n, err
}

// Close drains any unread remainder so the session is reusable and
// closes the joined stripes. A failure Read already returned is not
// reported again.
func (g *GetReader) Close() error {
	err := serverAbort(g.r.Drain())
	if g.err != nil {
		err = nil
	} else {
		g.err = err
	}
	g.end(g.err)
	return err
}

// readAll consumes the whole file through the pipelined receive path.
func (g *GetReader) readAll() ([]byte, error) {
	hint := 0
	if g.size > 0 && g.size <= maxPutPrealloc {
		hint = int(g.size)
	}
	data, err := g.r.ReadAll(hint)
	if err != nil {
		g.err = serverAbort(err)
		g.Close()
		return nil, g.err
	}
	g.add(len(data))
	return data, g.Close()
}

// GetReader starts a GET of path: over the control connection when
// stripes ≤ 0, else over up to stripes data connections (the server may
// grant fewer).
func (c *Client) GetReader(path string, stripes int) (*GetReader, error) {
	var req []byte
	if stripes > 0 {
		req = encodeStripeGetReq(stripes)
	}
	t, conns, size, err := c.open(opGetS, path, stripes, req)
	if err != nil {
		return nil, err
	}
	r, _ := gsitransport.Open(context.Background(), conns, gsitransport.ReadHalf)
	return &GetReader{transfer: t, r: r, size: size}, nil
}

// GetTo fetches path, writing the content to w as it arrives, and
// returns the byte count.
func (c *Client) GetTo(path string, w io.Writer) (int64, error) {
	g, err := c.GetReader(path, 0)
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
	g, err := c.GetReader(path, 0)
	if err != nil {
		return nil, err
	}
	return g.readAll()
}

// GetStriped fetches a file over parallel stripes into memory.
func (c *Client) GetStriped(path string, stripes int) ([]byte, error) {
	g, err := c.GetReader(path, max(stripes, 1))
	if err != nil {
		return nil, err
	}
	return g.readAll()
}

// PutWriter is an in-flight PUT: an io.WriteCloser whose Close
// completes the transfer and returns the server's verdict from the
// control connection. Abort cancels mid-stream, and a failed Write
// aborts. Finish (Close or Abort) before issuing further commands on
// the same client.
type PutWriter struct {
	transfer
	c    *Client
	w    gsitransport.Writer
	done bool
	err  error // the failure of a Write that aborted the transfer
}

// Write ships file bytes as chunk records. A failure aborts the
// transfer, and a later Close or Abort reports it again.
func (w *PutWriter) Write(p []byte) (int, error) {
	n, err := w.w.Write(p)
	w.add(n)
	if err != nil && !w.done {
		w.Abort(err.Error())
		w.err = err
	}
	return n, err
}

// Close sends FIN and waits for the server's verdict.
func (w *PutWriter) Close() error {
	if w.done {
		return w.err
	}
	w.done = true
	werr := w.w.CloseWrite()
	_, err := w.c.readReply()
	err = errors.Join(err, werr)
	w.end(err)
	return err
}

// Abort cancels the transfer mid-stream: the server discards the
// partial file and the session stays usable.
func (w *PutWriter) Abort(reason string) error {
	if w.done {
		return w.err
	}
	w.done = true
	err := w.w.CloseWithError(reason)
	// The server acknowledges the abort with its ERR reply.
	if _, rerr := w.c.readReply(); rerr == nil {
		err = errors.New("gridftp: server confirmed an aborted transfer")
	}
	w.end(errors.New(reason))
	return err
}

// PutWriter starts a PUT to path: over the control connection when
// stripes ≤ 0, else over up to stripes data connections. The server
// authorizes the write before any data flows. sizeHint, when positive,
// lets the server pre-size its assembly; 0 means unknown.
func (c *Client) PutWriter(path string, stripes int, sizeHint int64) (*PutWriter, error) {
	var req []byte
	switch {
	case stripes > 0:
		req = encodeStripePutReq(stripes, uint64(max(sizeHint, 0)))
	case sizeHint > 0:
		req = binary.BigEndian.AppendUint64(nil, uint64(sizeHint))
	}
	t, conns, _, err := c.open(opPutS, path, stripes, req)
	if err != nil {
		return nil, err
	}
	_, w := gsitransport.Open(context.Background(), conns, gsitransport.WriteHalf)
	return &PutWriter{transfer: t, c: c, w: w}, nil
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
	w, err := c.PutWriter(path, 0, hint)
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
func (c *Client) Put(path string, data []byte) error { return c.putAll(path, 0, data) }

// PutStriped stores a file over parallel stripes.
func (c *Client) PutStriped(path string, stripes int, data []byte) error {
	return c.putAll(path, max(stripes, 1), data)
}

func (c *Client) putAll(path string, stripes int, data []byte) error {
	w, err := c.PutWriter(path, stripes, int64(len(data)))
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err // Write aborted the transfer
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
// file — so third-party moves are unbounded too. With stripes ≤ 0 each
// leg rides its control connection; a positive count fans both legs
// over up to that many parallel stripes, as GetReader and PutWriter do.
//
// In this in-process reproduction the "source server side" runs in this
// function with the delegated credential, exactly as the source host
// would.
func ThirdPartyTransfer(client *gridcert.Credential, trust *gridcert.TrustStore,
	srcAddr string, srcHost gridcert.Name,
	dstAddr string, dstHost gridcert.Name,
	srcPath, dstPath string, stripes int) error {

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

	get, err := srcConn.GetReader(srcPath, stripes)
	if err != nil {
		return err
	}
	put, err := dstConn.PutWriter(dstPath, stripes, get.Size())
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

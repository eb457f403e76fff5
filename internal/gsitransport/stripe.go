package gsitransport

import (
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"repro/internal/gridcrypto"
	"repro/internal/record"
)

// Striped transfer: one logical byte stream fanned over K secured
// connections, GridFTP parallel-stripes style. The sender stamps every
// DATA chunk with a *global* sequence number before dealing it
// round-robin to a stripe, so each stripe's record protection covers
// the ordering information; the receiver reassembles through a
// windowed StripeAssembler. Every stripe terminates with a FIN whose
// sequence field carries the transfer's total chunk count — the FIN
// trailer — so a stripe that dies mid-flight always surfaces as an
// error, never as a silently truncated file (see internal/record's
// stripe.go for the invariant).

// ErrStripeAborted reports a striped transfer torn down by Abort.
var ErrStripeAborted = errors.New("gsitransport: striped transfer aborted")

type laneFrame struct {
	buf *record.Buf
	n   int // chunk record length, assembled at offset Headroom
}

// StripedWriter fans one stream over K connections. Chunks are
// assembled and sequence-stamped by the writing goroutine; each stripe
// has a sender goroutine sealing and writing on its own connection, so
// K stripes drive up to K cores. Not safe for concurrent Write.
type StripedWriter struct {
	ctx       context.Context
	conns     []*Conn
	lanes     []chan laneFrame
	chunkSize int
	seq       uint64 // next global DATA chunk sequence number
	finSent   bool
	closed    bool
	wg        sync.WaitGroup

	mu  sync.Mutex
	err error
}

// laneDepth bounds the per-stripe queue of assembled-but-unsent
// chunks; depth × chunk size × stripes is the sender-side memory bound.
const laneDepth = 4

// NewStripedWriter starts a striped writer over conns. The caller's
// protocol must have put all K connections in agreement that chunk
// records for this one transfer follow.
func NewStripedWriter(ctx context.Context, conns []*Conn) *StripedWriter {
	if ctx == nil {
		ctx = context.Background()
	}
	w := &StripedWriter{
		ctx:       ctx,
		conns:     conns,
		lanes:     make([]chan laneFrame, len(conns)),
		chunkSize: record.DefaultChunkSize,
	}
	for i, c := range conns {
		w.lanes[i] = make(chan laneFrame, laneDepth)
		w.wg.Add(1)
		go w.runLane(c, w.lanes[i])
	}
	return w
}

func (w *StripedWriter) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

// Err returns the first stripe failure, if any.
func (w *StripedWriter) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

func (w *StripedWriter) runLane(c *Conn, ch chan laneFrame) {
	defer w.wg.Done()
	for f := range ch {
		err := c.SendAssembled(w.ctx, f.buf.B[:Headroom+f.n])
		f.buf.Free()
		if err != nil {
			w.fail(err)
			break
		}
	}
	// After a failure keep draining so the writing goroutine never
	// blocks on a dead lane's queue.
	for f := range ch {
		f.buf.Free()
	}
}

// Write deals p across the stripes as globally sequenced DATA chunks.
func (w *StripedWriter) Write(p []byte) (int, error) {
	if w.finSent || w.closed {
		return 0, ErrWriteHalfClosed
	}
	written := 0
	for written < len(p) {
		if err := w.Err(); err != nil {
			return written, err
		}
		piece := p[written:]
		if len(piece) > w.chunkSize {
			piece = piece[:w.chunkSize]
		}
		buf := record.Get(Headroom + record.ChunkHeader + len(piece) + SendOverhead)
		rec := record.AppendChunk(buf.B[:Headroom], record.ChunkData, w.seq, piece)
		lane := int(w.seq % uint64(len(w.lanes)))
		w.seq++
		w.lanes[lane] <- laneFrame{buf: buf, n: len(rec) - Headroom}
		written += len(piece)
	}
	return written, nil
}

// terminate fans one terminal record (built by mk) to every stripe.
func (w *StripedWriter) terminate(mk func(dst []byte) []byte) {
	for _, lane := range w.lanes {
		buf := record.Get(Headroom + record.ChunkHeader + record.MaxErrorPayload + SendOverhead)
		rec := mk(buf.B[:Headroom])
		lane <- laneFrame{buf: buf, n: len(rec) - Headroom}
	}
}

// Close sends the FIN trailer — total chunk count — on every stripe,
// waits for all lanes to flush, and returns the first failure.
func (w *StripedWriter) Close() error {
	if !w.closed {
		w.closed = true
		if !w.finSent && w.Err() == nil {
			w.finSent = true
			total := w.seq
			w.terminate(func(dst []byte) []byte {
				return record.AppendChunk(dst, record.ChunkFIN, total, nil)
			})
		}
		for _, lane := range w.lanes {
			close(lane)
		}
		w.wg.Wait()
	}
	return w.Err()
}

// CloseWithError aborts the transfer: every stripe carries the ERROR
// record so the receiver fails with a *record.PeerError no matter which
// stripe it reads first.
func (w *StripedWriter) CloseWithError(msg string) error {
	if w.closed {
		return w.Err()
	}
	w.closed = true
	if !w.finSent {
		w.finSent = true
		seq := w.seq
		w.terminate(func(dst []byte) []byte {
			return record.AppendErrorChunk(dst, seq, msg)
		})
	}
	for _, lane := range w.lanes {
		close(lane)
	}
	w.wg.Wait()
	return w.Err()
}

// StripedReader reassembles one stream from K connections. A reader
// goroutine per stripe feeds a shared windowed assembler; Read/ReadAll
// deliver bytes in global sequence order. A connection that fails
// before its FIN fails the whole transfer.
type StripedReader struct {
	conns []*Conn
	wg    sync.WaitGroup

	mu     sync.Mutex
	cond   *sync.Cond
	asm    *record.StripeAssembler
	err    error
	cur    []byte
	curBuf *record.Buf
}

// NewStripedReader starts reader goroutines over conns with the given
// reassembly window (0 = record.DefaultStripeWindow).
func NewStripedReader(ctx context.Context, conns []*Conn, window int) *StripedReader {
	if ctx == nil {
		ctx = context.Background()
	}
	r := &StripedReader{
		conns: conns,
		asm:   record.NewStripeAssembler(len(conns), window),
	}
	r.cond = sync.NewCond(&r.mu)
	for _, c := range conns {
		c.SetReceiveSizeHint(chunkRecvHint)
		r.wg.Add(1)
		go r.runStripe(ctx, c)
	}
	return r
}

func (r *StripedReader) runStripe(ctx context.Context, c *Conn) {
	defer r.wg.Done()
	for {
		view, buf, err := c.ReceiveView(ctx)
		if err != nil {
			r.mu.Lock()
			if r.err == nil && !r.asm.Done() {
				// Dead stripe before its FIN: with the FIN trailer pinning
				// the chunk population this is always detected, never a
				// silent truncation.
				r.err = fmt.Errorf("gsitransport: stripe lost before FIN: %w", err)
			}
			r.cond.Broadcast()
			r.mu.Unlock()
			return
		}
		typ, seq, _, perr := record.ParseChunk(view)
		r.mu.Lock()
		// Flow control: a stripe that ran ahead of the delivery cursor
		// parks here until the consumer drains the window. Only DATA
		// chunks wait — FIN may legitimately carry a far-ahead total and
		// ERROR must overtake everything.
		for r.err == nil && perr == nil && typ == record.ChunkData && !r.asm.Fits(seq) {
			r.cond.Wait()
		}
		if r.err != nil {
			// A peer abort seen on another stripe ends the transfer, but
			// this stripe's own ERROR record is still in flight: read up
			// to it so the connection stays synchronized. Any other
			// failure leaves the connections to Abort.
			var peerErr *record.PeerError
			more := errors.As(r.err, &peerErr) && perr == nil && typ == record.ChunkData
			r.mu.Unlock()
			buf.Free()
			if more {
				continue
			}
			return
		}
		if aerr := r.asm.Accept(view, buf); aerr != nil {
			var peerErr *record.PeerError
			if !errors.As(aerr, &peerErr) {
				c.broken.Store(true)
			}
			r.err = aerr
			r.cond.Broadcast()
			r.mu.Unlock()
			buf.Free()
			return
		}
		fin := perr == nil && typ == record.ChunkFIN
		r.cond.Broadcast()
		r.mu.Unlock()
		if fin {
			// FIN buffers stay with the caller; this stripe's record flow
			// ends here, leaving its connection synchronized.
			buf.Free()
			c.SetReceiveSizeHint(0)
			return
		}
	}
}

// Read delivers stream bytes in global order, io.EOF after every
// stripe's FIN agrees the stream is complete.
func (r *StripedReader) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if len(r.cur) > 0 {
			n := copy(p, r.cur)
			r.cur = r.cur[n:]
			if len(r.cur) == 0 {
				r.curBuf.Free()
				r.curBuf = nil
			}
			return n, nil
		}
		if payload, buf, ok := r.asm.Pop(); ok {
			r.cur, r.curBuf = payload, buf
			// The cursor moved: wake stripes parked on the window.
			r.cond.Broadcast()
			continue
		}
		if r.asm.Done() {
			return 0, io.EOF
		}
		if r.err != nil {
			return 0, r.err
		}
		if len(p) == 0 {
			return 0, nil
		}
		r.cond.Wait()
	}
}

// ReadAll consumes the whole transfer, preallocating sizeHint.
func (r *StripedReader) ReadAll(sizeHint int) ([]byte, error) {
	if sizeHint < 0 {
		sizeHint = 0
	}
	data := make([]byte, 0, sizeHint)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.cur) > 0 {
		data = append(data, r.cur...)
		r.cur = nil
		r.curBuf.Free()
		r.curBuf = nil
	}
	for {
		if payload, buf, ok := r.asm.Pop(); ok {
			data = append(data, payload...)
			buf.Free()
			r.cond.Broadcast()
			continue
		}
		if r.asm.Done() {
			return data, nil
		}
		if r.err != nil {
			return data, r.err
		}
		r.cond.Wait()
	}
}

// Drain consumes the transfer to its terminal record and reaps the
// stripe goroutines: Join when every stripe resynchronized (a clean
// end, or the peer's ERROR record), Abort otherwise. Returns nil on a
// clean end, the *record.PeerError on a peer abort, and otherwise the
// failure that left the connections unusable. Safe after Read or
// ReadAll already reached the end.
func (r *StripedReader) Drain() error {
	var scratch [4096]byte
	var err error
	for err == nil {
		_, err = r.Read(scratch[:])
	}
	var peerErr *record.PeerError
	switch {
	case err == io.EOF:
		r.Join()
		return nil
	case errors.As(err, &peerErr):
		r.Join()
	default:
		r.Abort()
	}
	return err
}

// Join waits for every stripe goroutine to finish after a clean read to
// EOF, leaving the connections reusable.
func (r *StripedReader) Join() {
	r.wg.Wait()
}

// Abort tears the transfer down from the consumer side: poisons every
// connection, wakes blocked stripe readers, reaps them, and frees all
// buffered chunks. The connections are not reusable afterwards.
func (r *StripedReader) Abort() {
	r.mu.Lock()
	if r.err == nil {
		r.err = ErrStripeAborted
	}
	if r.curBuf != nil {
		r.curBuf.Free()
		r.curBuf = nil
		r.cur = nil
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	for _, c := range r.conns {
		c.abortReads()
	}
	r.wg.Wait()
	r.mu.Lock()
	r.asm.Release()
	r.mu.Unlock()
}

// --- stripe rendezvous ----------------------------------------------------

// A server collects the K connections of one striped transfer through a
// Rendezvous. The owner — GridFTP's control connection, or the facade's
// stripe 0 — opens a group and hands the client its token. Every other
// connection Joins with the token, answers the client, and parks in
// Released. Once all parked, the owner's Await returns; the owner runs
// the transfer and calls Release. A stripe counts only once parked, so
// the transfer's first record never overtakes its join reply.

// StripeTokenLen is the size of a group token: 128 unguessable bits.
const StripeTokenLen = 16

// maxFormingGroups bounds the groups forming at once, so a hostile
// peer cannot park unbounded serve goroutines.
const maxFormingGroups = 256

// joinTimeout bounds how long an owner waits for its stripes.
const joinTimeout = 10 * time.Second

var (
	errTooManyGroups = errors.New("gsitransport: too many forming stripe groups")
	errUnknownToken  = errors.New("gsitransport: unknown transfer token")
	errOtherOwner    = errors.New("gsitransport: transfer token bound to another identity")
	errTagMismatch   = errors.New("gsitransport: stripe disagrees within group")
	errStripeIndex   = errors.New("gsitransport: bad or duplicate stripe index")
)

// Rendezvous is a server's registry of forming stripe groups. The zero
// value is ready to use.
type Rendezvous struct {
	mu      sync.Mutex
	forming []*StripeGroup
}

// StripeGroup is one striped transfer forming or running on a server.
type StripeGroup struct {
	rv    *Rendezvous
	token []byte
	owner string
	tag   string

	conns     []*Conn // guarded by rv.mu until ready
	parked    int     // guarded by rv.mu
	withdrawn bool    // guarded by rv.mu: abandoned before ready

	ready chan struct{} // closed when every stripe parked
	done  chan struct{} // closed by Release
	once  sync.Once
	ran   bool // set by Await before Release; read after done closes
}

// Open starts a group of count (≥ 1) stripes for the identity owner,
// under a token minted here. Joining stripes must name the same owner
// and tag (the facade's stream op).
func (rv *Rendezvous) Open(owner string, count int, tag string) (*StripeGroup, error) {
	token, err := gridcrypto.RandomBytes(StripeTokenLen)
	if err != nil {
		return nil, err
	}
	g := &StripeGroup{
		rv:    rv,
		token: token,
		owner: owner,
		tag:   tag,
		conns: make([]*Conn, count),
		ready: make(chan struct{}),
		done:  make(chan struct{}),
	}
	rv.mu.Lock()
	defer rv.mu.Unlock()
	if len(rv.forming) >= maxFormingGroups {
		return nil, errTooManyGroups
	}
	rv.forming = append(rv.forming, g)
	return g, nil
}

// Join binds conn as stripe idx of the group token names. The token is
// bound to the owner's identity, so a leaked token is useless without
// the credential that opened the group.
func (rv *Rendezvous) Join(token []byte, owner string, idx int, tag string, conn *Conn) (*StripeGroup, error) {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	var g *StripeGroup
	for _, f := range rv.forming {
		// Every token is compared in full: timing says nothing about
		// which bytes of a guess matched.
		if subtle.ConstantTimeCompare(f.token, token) == 1 {
			g = f
		}
	}
	switch {
	case g == nil:
		return nil, errUnknownToken
	case g.owner != owner:
		return nil, errOtherOwner
	case g.tag != tag:
		return nil, errTagMismatch
	case idx < 0 || idx >= len(g.conns) || g.conns[idx] != nil:
		return nil, errStripeIndex
	}
	g.conns[idx] = conn
	return g, nil
}

func (rv *Rendezvous) remove(g *StripeGroup) {
	rv.forming = slices.DeleteFunc(rv.forming, func(f *StripeGroup) bool { return f == g })
}

// Token is the group's capability, for the owner to hand the client.
func (g *StripeGroup) Token() []byte { return g.token }

// Conns are the group's connections by stripe index, complete once
// Await reported true.
func (g *StripeGroup) Conns() []*Conn { return g.conns }

// Await waits for every stripe to park and reports true; the owner then
// runs the transfer over Conns and calls Release. After the join
// timeout the group is abandoned and its stripes released, unless the
// last stripe parked at the same moment: then the transfer runs.
func (g *StripeGroup) Await() bool {
	timer := time.NewTimer(joinTimeout)
	defer timer.Stop()
	select {
	case <-g.ready:
	case <-timer.C:
		if g.abandon() {
			g.Release()
			return false
		}
	}
	g.ran = true
	return true
}

// abandon withdraws a group that is not ready, so no join or park can
// complete it. Reports false when it was ready first.
func (g *StripeGroup) abandon() bool {
	g.rv.mu.Lock()
	defer g.rv.mu.Unlock()
	select {
	case <-g.ready:
		return false
	default:
	}
	g.withdrawn = true
	g.rv.remove(g)
	return true
}

// Release ends the owner's hold: a group not yet ready is withdrawn, and
// every parked stripe returns from Released.
func (g *StripeGroup) Release() {
	g.abandon()
	g.once.Do(func() { close(g.done) })
}

// Released parks a joined stripe, once its join reply went out, until
// the owner releases the group. It reports whether the transfer ran;
// false means the group was abandoned.
func (g *StripeGroup) Released() bool {
	g.rv.mu.Lock()
	g.parked++
	if g.parked == len(g.conns) && !g.withdrawn {
		close(g.ready)
		g.rv.remove(g)
	}
	g.rv.mu.Unlock()
	<-g.done
	return g.ran
}

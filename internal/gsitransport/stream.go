package gsitransport

import (
	"context"
	"errors"
	"io"

	"repro/internal/gss"
	"repro/internal/record"
)

// chunkRecvHint pre-sizes record reads for streams: a full DATA chunk
// record (header + payload) plus the wrap expansion, so chunk reads hit
// one pool class and never grow.
const chunkRecvHint = record.ChunkHeader + record.DefaultChunkSize + SendOverhead

// ErrWriteHalfClosed reports a Write after CloseWrite.
var ErrWriteHalfClosed = errors.New("gsitransport: stream write half closed")

// Stream is a secured byte stream carried as chunk records on a Conn's
// record stream (record package, chunked mode). While a stream is in
// flight it owns the connection's record stream: the application
// protocol above it decides when a stream starts and both ends must
// agree, after which DATA records flow until the explicit FIN (or
// ERROR) terminal record. Each half is independently usable — a
// transfer may stream in one direction only — and each half must be
// driven by a single goroutine at a time.
//
// A stream that terminates cleanly (FIN sent and/or FIN read, per the
// protocol's direction) leaves the connection synchronized and reusable
// for further exchanges or streams; any I/O or sequence error breaks
// the connection.
type Stream struct {
	c   *Conn
	ctx context.Context

	// Send half.
	sender    record.ChunkSender
	chunkSize int

	// Receive half.
	asm    record.Assembler
	cur    []byte // unread remainder of the current DATA chunk
	curBuf *record.Buf
	rerr   error // terminal receive state: io.EOF after FIN, else the failure
	sized  bool  // the connection's reads are sized for chunk records
}

// NewStream starts a stream on c, with ctx governing every record it
// sends or receives. The caller's protocol must have put both ends in
// agreement that chunk records follow.
func NewStream(ctx context.Context, c *Conn) *Stream {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Stream{c: c, ctx: ctx, chunkSize: record.DefaultChunkSize}
}

// sizeReads pre-sizes the connection's record reads for chunk records
// once the receive half is first used, so a stream that only writes
// leaves the connection's read sizing alone.
func (s *Stream) sizeReads() {
	if !s.sized {
		s.sized = true
		s.c.SetReceiveSizeHint(chunkRecvHint)
	}
}

// Conn returns the connection the stream rides on.
func (s *Stream) Conn() *Conn { return s.c }

// bulkWriteThreshold is the write size past which Write switches to the
// pipelined seal path: enough chunks that worker fan-out and vectored
// flushes pay for the pipeline's goroutines.
const bulkWriteThreshold = 4 * record.DefaultChunkSize

// Write splits p into DATA chunk records of at most DefaultChunkSize
// and sends each sealed in place from a pooled buffer. Large writes
// take the pipelined path: chunks seal on worker goroutines in parallel
// and reach the wire as vectored batches, in exactly the byte order the
// serial path would have produced.
func (s *Stream) Write(p []byte) (int, error) {
	if s.sender.Terminated() {
		return 0, ErrWriteHalfClosed
	}
	if len(p) >= bulkWriteThreshold {
		return s.writeBulk(p)
	}
	written := 0
	for written < len(p) {
		piece := p[written:]
		if len(piece) > s.chunkSize {
			piece = piece[:s.chunkSize]
		}
		if err := s.sendChunk(func(frame []byte) ([]byte, error) {
			return s.sender.AppendData(frame, piece)
		}, len(piece)); err != nil {
			return written, err
		}
		written += len(piece)
	}
	return written, nil
}

// writeBulk drives p through a seal pipeline: chunk records are
// assembled (and their chunk sequence numbers stamped) here in order,
// workers seal them concurrently, and the pipeline's writer flushes
// consecutive ready frames through one vectored SendSealedBatch each.
func (s *Stream) writeBulk(p []byte) (int, error) {
	pl := record.NewPipeline(s.c.Context(), 0, 0, func(frames [][]byte) error {
		return s.c.SendSealedBatch(s.ctx, frames)
	})
	written := 0
	for written < len(p) {
		piece := p[written:]
		if len(piece) > s.chunkSize {
			piece = piece[:s.chunkSize]
		}
		buf := record.Get(Headroom + record.ChunkHeader + len(piece) + SendOverhead)
		frame, err := s.sender.AppendData(buf.B[:Headroom], piece)
		if err != nil {
			buf.Free()
			pl.Close()
			return written, err
		}
		if err := pl.Submit(buf, len(frame)-Headroom); err != nil {
			pl.Close()
			return written, err
		}
		written += len(piece)
	}
	if err := pl.Close(); err != nil {
		return written, err
	}
	return written, nil
}

// CloseWrite terminates the send half cleanly with the FIN record.
// Idempotent: a second close is a no-op.
func (s *Stream) CloseWrite() error {
	if s.sender.Terminated() {
		return nil
	}
	return s.sendChunk(s.sender.AppendFIN, 0)
}

// CloseWithError aborts the send half with an ERROR record carrying
// msg; the peer's reads fail with a *record.PeerError. No-op if the
// half is already terminated.
func (s *Stream) CloseWithError(msg string) error {
	if s.sender.Terminated() {
		return nil
	}
	return s.sendChunk(func(frame []byte) ([]byte, error) {
		return s.sender.AppendError(frame, msg)
	}, len(msg))
}

// sendChunk assembles one chunk record via appendFn directly into a
// pooled frame buffer and sends it in place.
func (s *Stream) sendChunk(appendFn func([]byte) ([]byte, error), payloadLen int) error {
	buf := record.Get(Headroom + record.ChunkHeader + payloadLen + SendOverhead)
	defer buf.Free()
	frame, err := appendFn(buf.B[:Headroom])
	if err != nil {
		return err
	}
	return s.c.SendAssembled(s.ctx, frame)
}

// Read returns stream bytes as the peer's DATA chunks arrive, io.EOF
// after its FIN, and a *record.PeerError if the peer aborted. A
// sequence violation breaks the connection.
func (s *Stream) Read(p []byte) (int, error) {
	for {
		if len(s.cur) > 0 {
			n := copy(p, s.cur)
			s.cur = s.cur[n:]
			if len(s.cur) == 0 {
				s.curBuf.Free()
				s.curBuf = nil
			}
			return n, nil
		}
		if s.rerr != nil {
			return 0, s.rerr
		}
		if len(p) == 0 {
			return 0, nil
		}
		s.sizeReads()
		view, buf, err := s.c.ReceiveView(s.ctx)
		if err != nil {
			s.rerr = err
			return 0, err
		}
		payload, fin, err := s.asm.Accept(view)
		switch {
		case err != nil:
			buf.Free()
			var peerErr *record.PeerError
			if !errors.As(err, &peerErr) {
				// Sequence violation or garbage: the record stream can no
				// longer be trusted.
				s.c.broken.Store(true)
			}
			s.rerr = err
			return 0, err
		case fin:
			buf.Free()
			s.rerr = io.EOF
			s.c.SetReceiveSizeHint(0)
			return 0, io.EOF
		case len(payload) == 0:
			buf.Free() // empty DATA chunk: keep reading
		default:
			s.cur = payload
			s.curBuf = buf
		}
	}
}

// ReadAll consumes the stream to FIN through the pipelined receive
// path and returns every payload byte, preallocating sizeHint. Frames
// are read off the wire by a dedicated goroutine and decrypted by open-
// pipeline workers in parallel; this goroutine reassembles the chunk
// protocol in arrival order, so the result is byte-identical to a
// serial Read loop.
//
// Prefetch safety: the wire reader may only run ahead on records it can
// prove are DATA without decrypting them — and it can, by size alone. A
// full-size DATA chunk's sealed token is longer than any terminal
// record can be (FIN is empty, ERROR is capped at MaxErrorPayload), so
// full-size records prefetch freely while anything smaller — a partial
// tail chunk, FIN, ERROR — makes the reader pause until this goroutine
// has decoded it and signalled whether the stream continues. Bulk
// transfers pay one pause at the tail; the reader never steals bytes
// belonging to the next protocol message after FIN.
func (s *Stream) ReadAll(sizeHint int) ([]byte, error) {
	if sizeHint < 0 {
		sizeHint = 0
	}
	data := make([]byte, 0, sizeHint)
	if len(s.cur) > 0 {
		data = append(data, s.cur...)
		s.cur = nil
		s.curBuf.Free()
		s.curBuf = nil
	}
	if s.rerr != nil {
		if s.rerr == io.EOF {
			return data, nil
		}
		return data, s.rerr
	}

	s.sizeReads()
	op := record.NewOpenPipeline(s.c.Context(), 0, 0)
	fullToken := gss.WrapOverhead + record.ChunkHeader + s.chunkSize
	proceed := make(chan bool, 1)
	readerDone := make(chan struct{})
	var readErr error // written before CloseSubmit, read after Next reports closed
	go func() {
		defer close(readerDone)
		for {
			token, buf, err := s.c.ReceiveSealed(s.ctx)
			if err != nil {
				readErr = err
				break
			}
			possiblyTerminal := len(token) != fullToken
			if err := op.Submit(token, buf); err != nil {
				break // pipeline poisoned; consumer already has the error
			}
			if possiblyTerminal && !<-proceed {
				break
			}
		}
		op.CloseSubmit()
	}()

	// teardown reaps the reader after a failure: wake it wherever it is
	// blocked (record read, window-full Submit, or the proceed gate) and
	// drain whatever was still in flight.
	teardown := func() {
		s.c.abortReads()
		select {
		case proceed <- false:
		default:
		}
		for {
			_, buf, ok, _ := op.Next()
			if !ok {
				break
			}
			buf.Free()
		}
		<-readerDone
	}

	for {
		pt, buf, ok, err := op.Next()
		if err != nil {
			teardown()
			s.rerr = err
			return data, err
		}
		if !ok {
			<-readerDone
			err := readErr
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			s.rerr = err
			return data, err
		}
		small := len(pt) != record.ChunkHeader+s.chunkSize
		payload, fin, aerr := s.asm.Accept(pt)
		switch {
		case aerr != nil:
			buf.Free()
			var peerErr *record.PeerError
			if errors.As(aerr, &peerErr) && small {
				// Graceful peer abort: the reader is parked at the proceed
				// gate and the connection stays synchronized.
				proceed <- false
				<-readerDone
				op.Drain()
			} else {
				s.c.broken.Store(true)
				teardown()
			}
			s.rerr = aerr
			return data, aerr
		case fin:
			buf.Free()
			proceed <- false // FIN is never full-size: the reader is parked
			<-readerDone
			op.Drain()
			s.rerr = io.EOF
			s.c.SetReceiveSizeHint(0)
			return data, nil
		default:
			data = append(data, payload...)
			buf.Free()
			if small {
				proceed <- true
			}
		}
	}
}

// Drain consumes and discards the peer's remaining chunks until its
// terminal record and ends the receive half, leaving the connection
// synchronized unless the stream failed. Returns nil on a clean end
// (including a stream already fully read), the *record.PeerError on a
// peer abort, and otherwise the failure.
func (s *Stream) Drain() error {
	defer s.release()
	var scratch [4096]byte
	for {
		_, err := s.Read(scratch[:])
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// Abort ends the receive half without reading it to its terminal
// record: the connection is poisoned and not reusable afterwards.
func (s *Stream) Abort() {
	s.c.abortReads()
	s.release()
}

// release returns the stream's buffered state to the pool and restores
// the connection's default receive sizing.
func (s *Stream) release() {
	if s.curBuf != nil {
		s.curBuf.Free()
		s.curBuf = nil
		s.cur = nil
	}
	if s.sized {
		s.c.SetReceiveSizeHint(0)
	}
}

package gsi

import (
	"context"
	"errors"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeCloseStream is a Stream whose Close returns a canned error.
type fakeCloseStream struct {
	Stream
	closeErr error
	closes   atomic.Int32
}

func (f *fakeCloseStream) Close() error {
	f.closes.Add(1)
	return f.closeErr
}

// fakeCloseSession is a Session whose Close returns a canned error.
type fakeCloseSession struct {
	closeErr error
	closes   atomic.Int32
}

func (f *fakeCloseSession) Exchange(context.Context, string, []byte) ([]byte, error) {
	return nil, errors.New("not implemented")
}
func (f *fakeCloseSession) OpenStream(context.Context, string) (Stream, error) {
	return nil, errors.New("not implemented")
}
func (f *fakeCloseSession) Peer() Peer { return Peer{} }
func (f *fakeCloseSession) Close() error {
	f.closes.Add(1)
	return f.closeErr
}

// Regression: ownedStream.Close used to discard the session-release
// error — a pool-side failure on release was invisible to the caller.
// Both failure sites must surface, joined.
func TestOwnedStreamCloseJoinsErrors(t *testing.T) {
	streamErr := errors.New("stream close failed")
	sessErr := errors.New("session release failed")
	cases := []struct {
		name           string
		stErr, seErr   error
		wantSt, wantSe bool
		wantNil        bool
	}{
		{"both fail", streamErr, sessErr, true, true, false},
		{"session only", nil, sessErr, false, true, false},
		{"stream only", streamErr, nil, true, false, false},
		{"clean", nil, nil, false, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := &fakeCloseStream{closeErr: tc.stErr}
			se := &fakeCloseSession{closeErr: tc.seErr}
			o := &ownedStream{Stream: st, sess: se}
			err := o.Close()
			if tc.wantNil != (err == nil) {
				t.Fatalf("Close() = %v", err)
			}
			if got := errors.Is(err, streamErr); got != tc.wantSt {
				t.Fatalf("stream error surfaced = %v, want %v (err=%v)", got, tc.wantSt, err)
			}
			if got := errors.Is(err, sessErr); got != tc.wantSe {
				t.Fatalf("session error surfaced = %v, want %v (err=%v)", got, tc.wantSe, err)
			}
			// Idempotent: the second Close is a no-op.
			if err := o.Close(); err != nil {
				t.Fatalf("second Close() = %v", err)
			}
			if st.closes.Load() != 1 || se.closes.Load() != 1 {
				t.Fatalf("close counts: stream %d session %d", st.closes.Load(), se.closes.Load())
			}
		})
	}
}

// Regression: ownedStream documents that Close is required even after
// errors, so a reader goroutine and a writer goroutine can both reach
// it — the closed flag must be race-safe and the underlying halves must
// be closed exactly once.
func TestOwnedStreamConcurrentClose(t *testing.T) {
	st := &fakeCloseStream{}
	se := &fakeCloseSession{}
	o := &ownedStream{Stream: st, sess: se}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := o.Close(); err != nil {
				t.Errorf("Close() = %v", err)
			}
		}()
	}
	wg.Wait()
	if st.closes.Load() != 1 || se.closes.Load() != 1 {
		t.Fatalf("close counts: stream %d session %d", st.closes.Load(), se.closes.Load())
	}
}

// The GT3 gate admits a chunk call only under a live stream id that the
// same peer opened: an unknown id, another peer's id and an id retired
// after both halves ended are all denied.
func TestGT3ChunkGate(t *testing.T) {
	w := newCredmanWorld(t)
	bob, err := w.ca.NewEntity(MustParseName("/O=Grid/CN=Bob"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	server, err := w.env.NewServer(w.host, WithTransport(TransportGT3()),
		WithStreamHandler(func(ctx context.Context, peer Peer, op string, st Stream) error {
			_, err := io.WriteString(st, "done")
			return err
		}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ep, err := server.Serve(ctx, "127.0.0.1:0", func(ctx context.Context, peer Peer, op string, body []byte) ([]byte, error) {
		return body, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	session := func(cred *Credential) *gt3Session {
		client, err := w.env.NewClient(cred, WithTransport(TransportGT3()))
		if err != nil {
			t.Fatal(err)
		}
		sess, err := client.Connect(ctx, ep.Addr())
		if err != nil {
			t.Fatal(err)
		}
		return sess.(*gt3Session)
	}
	alice, mallory := session(w.alice), session(bob)
	st, err := alice.OpenStream(ctx, "read")
	if err != nil {
		t.Fatal(err)
	}
	id := st.(*gt3Stream).id
	denied := func(who *gt3Session, id, what string) {
		t.Helper()
		if _, err := who.invoke(ctx, exchangeHandle, gt3StreamWritePrefix+id, nil); err == nil || !strings.Contains(err.Error(), "unknown stream denied") {
			t.Fatalf("%s: chunk call answered %v, want denied", what, err)
		}
	}
	denied(alice, "no-such-stream", "unknown id")
	denied(mallory, id, "another peer's id")
	if _, err := io.ReadAll(st); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close after reading to EOF: %v", err)
	}
	denied(alice, id, "retired id")
}

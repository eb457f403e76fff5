package gsitransport

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/record"
)

// Open runs one connection on a Stream and K > 1 on the striped pair,
// starting only the striped halves asked for.
func TestOpenPicksStreamOrStripes(t *testing.T) {
	creds := newCreds(t)
	client, server := pipePair(t, creds)
	defer client.Close()
	defer server.Close()
	r, w := Open(nil, []*Conn{client}, ReadHalf)
	if st, ok := r.(*Stream); !ok || w != Writer(st) {
		t.Fatalf("one connection: reader %T, writer %T; want one *Stream", r, w)
	}

	clients, servers := stripedPairs(t, creds, 2)
	defer func() {
		for _, c := range append(clients, servers...) {
			c.Close()
		}
	}()
	r, w = Open(nil, servers, ReadHalf)
	if _, ok := r.(*StripedReader); !ok || w != nil {
		t.Fatalf("two connections, read half: reader %T, writer %T", r, w)
	}
	r2, w2 := Open(nil, clients, WriteHalf)
	if _, ok := w2.(*StripedWriter); !ok || r2 != nil {
		t.Fatalf("two connections, write half: reader %T, writer %T", r2, w2)
	}
	if err := w2.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
}

// A Stream and a one-stripe StripedWriter/StripedReader put the same
// records on the wire — DATA chunks 0…n-1, then a FIN whose sequence
// field is n, or an ERROR — so each end of one connection may run
// either shape. Open relies on this when it keeps K = 1 on a Stream.
// After a clean end or a mid-stream abort both connections must carry
// ordinary records again.
func TestStreamInteropsWithOneStripe(t *testing.T) {
	creds := newCreds(t)
	payload := make([]byte, bulkWriteThreshold+12345)
	rand.New(rand.NewSource(41)).Read(payload)

	shapes := []struct {
		name string
		send func(*Conn) Writer
		recv func(*Conn) Reader
	}{
		{
			"stream to one stripe",
			func(c *Conn) Writer { return NewStream(nil, c) },
			func(c *Conn) Reader { return NewStripedReader(nil, []*Conn{c}, 0) },
		},
		{
			"one stripe to stream",
			func(c *Conn) Writer { return NewStripedWriter(nil, []*Conn{c}) },
			func(c *Conn) Reader { return NewStream(nil, c) },
		},
	}
	for _, sh := range shapes {
		for _, abort := range []bool{false, true} {
			name := sh.name + "/clean"
			if abort {
				name = sh.name + "/abort"
			}
			t.Run(name, func(t *testing.T) {
				client, server := pipePair(t, creds)
				defer client.Close()
				defer server.Close()

				type result struct {
					data       []byte
					err, drain error
				}
				got := make(chan result, 1)
				go func() {
					r := sh.recv(server)
					data, err := r.ReadAll(len(payload))
					got <- result{data, err, r.Drain()}
				}()

				w := sh.send(client)
				sent := payload
				if abort {
					sent = payload[:len(payload)/2]
				}
				if _, err := w.Write(sent); err != nil {
					t.Fatal(err)
				}
				var err error
				if abort {
					err = w.CloseWithError("quota exceeded")
				} else {
					err = w.CloseWrite()
				}
				if err != nil {
					t.Fatal(err)
				}

				res := <-got
				if abort {
					var pe *record.PeerError
					if !errors.As(res.err, &pe) || pe.Msg != "quota exceeded" {
						t.Fatalf("ReadAll after abort: %v", res.err)
					}
					if !errors.As(res.drain, &pe) {
						t.Fatalf("Drain after abort = %v, want the peer's abort", res.drain)
					}
				} else {
					if res.err != nil || res.drain != nil {
						t.Fatalf("ReadAll: %v, Drain: %v", res.err, res.drain)
					}
					if !bytes.Equal(res.data, payload) {
						t.Fatalf("received %d bytes, want the %d sent", len(res.data), len(payload))
					}
				}

				// Both connections resynchronized: ordinary records flow
				// each way.
				echoed := make(chan error, 1)
				go func() {
					msg, err := server.Receive()
					if err == nil {
						err = server.Send(msg)
					}
					echoed <- err
				}()
				if err := client.Send([]byte("after")); err != nil {
					t.Fatal(err)
				}
				reply, err := client.Receive()
				if err != nil || string(reply) != "after" {
					t.Fatalf("post-transfer exchange: %q, %v", reply, err)
				}
				if err := <-echoed; err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

package gsi

import (
	"context"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/gsitransport"
)

// A stripe group token is bound to the identity whose stripe 0 opened
// the group: Bob presenting Alice's token on stream.sopen is refused at
// once, and Alice's group still completes.
func TestStripedOpenTokenBoundToIdentity(t *testing.T) {
	w := newCredmanWorld(t)
	bob, err := w.ca.NewEntity(MustParseName("/O=Grid/CN=Bob"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	server, err := w.env.NewServer(w.host, WithStreamHandler(func(ctx context.Context, peer Peer, op string, st Stream) error {
		_, err := io.Copy(io.Discard, st)
		return err
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Well inside the 10 s join timeout: a refusal must not wait for it.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ep, err := server.Serve(ctx, "127.0.0.1:0", func(ctx context.Context, peer Peer, op string, body []byte) ([]byte, error) {
		return body, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	open := func(cred *Credential, req stripedOpen) (*gt2Session, []byte, error) {
		t.Helper()
		client, err := w.env.NewClient(cred)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := client.Connect(ctx, ep.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		g := gt2SessionOf(sess)
		payload, buf, err := g.roundTrip(ctx, stripedOpenOp, encodeStripedOpen(req))
		if err != nil {
			return g, nil, err
		}
		token := append([]byte(nil), payload...)
		buf.Free()
		return g, token, nil
	}

	a0, token, err := open(w.alice, stripedOpen{op: "bulk", n: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := open(bob, stripedOpen{op: "bulk", token: token, n: 1}); err == nil || !strings.Contains(err.Error(), "another identity") {
		t.Fatalf("Bob joined Alice's stripe group: %v", err)
	}

	a1, _, err := open(w.alice, stripedOpen{op: "bulk", token: token, n: 1})
	if err != nil {
		t.Fatalf("Alice's own stripe refused after Bob's attempt: %v", err)
	}
	conns := []*gsitransport.Conn{a0.conn, a1.conn}
	sw := gsitransport.NewStripedWriter(ctx, conns)
	sr := gsitransport.NewStripedReader(ctx, conns, 0)
	if _, err := sw.Write([]byte("alice's bytes")); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sr.Drain(); err != nil {
		t.Fatalf("Alice's transfer: %v", err)
	}
}

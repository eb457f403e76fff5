package gridftp

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/gridcert"
	"repro/internal/gsitransport"
	"repro/internal/gss"
)

func stripedPayload(n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(7)).Read(data)
	return data
}

// A striped PUT then striped GET must reproduce the file exactly, with
// the data crossing K parallel data connections each way.
func TestStripedPutGetRoundTrip(t *testing.T) {
	b := newBed(t, openAll("/O=Grid/CN=Alice"))
	c, err := Dial(b.srv.Addr(), b.alice, b.trust, b.srv.Identity())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payload := stripedPayload(6<<20 + 333)
	if err := c.PutStriped("/data/striped", 4, payload); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetStriped("/data/striped", 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("striped round trip mismatch")
	}
	// The control session must be reusable for further commands.
	names, err := c.List("/data/")
	if err != nil || len(names) != 1 {
		t.Fatalf("List after striped transfer: %v %v", names, err)
	}
}

// The streaming reader variant delivers the announced size in order.
func TestStripedGetReaderStreams(t *testing.T) {
	b := newBed(t, openAll("/O=Grid/CN=Alice"))
	c, err := Dial(b.srv.Addr(), b.alice, b.trust, b.srv.Identity())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payload := stripedPayload(3<<20 + 17)
	if err := c.Put("/data/f", payload); err != nil {
		t.Fatal(err)
	}
	g, err := c.GetReader("/data/f", 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != int64(len(payload)) {
		t.Fatalf("Size = %d, want %d", g.Size(), len(payload))
	}
	got, err := io.ReadAll(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("striped streamed GET mismatch")
	}
}

// A server grants at most maxTransferStripes regardless of the ask,
// and a single-stripe request degrades to a working one-lane transfer.
func TestStripedGrantClamp(t *testing.T) {
	b := newBed(t, openAll("/O=Grid/CN=Alice"))
	c, err := Dial(b.srv.Addr(), b.alice, b.trust, b.srv.Identity())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payload := stripedPayload(1 << 20)
	if err := c.PutStriped("/data/one", 1, payload); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetStriped("/data/one", maxTransferStripes+7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("clamped striped GET mismatch")
	}
}

// An unauthorized striped PUT is denied in the command round trip —
// before any data connection is invited — and the session survives.
func TestStripedPutUnauthorized(t *testing.T) {
	b := newBed(t, openAll("/O=Grid/CN=Alice"))
	c, err := Dial(b.srv.Addr(), b.bob, b.trust, b.srv.Identity())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.PutWriter("/data/nope", 4, 1024); err == nil ||
		!strings.Contains(err.Error(), "denied") {
		t.Fatalf("unauthorized striped PUT: %v", err)
	}
	// The session must stay synchronized: the next command gets a
	// proper (here: denied) reply, not a desynced stream.
	if _, err := c.List("/"); err == nil || !strings.Contains(err.Error(), "denied") {
		t.Fatalf("session desynced after denial: %v", err)
	}
}

// An aborted striped PUT discards the partial file and keeps the
// control session synchronized.
func TestStripedPutAbort(t *testing.T) {
	b := newBed(t, openAll("/O=Grid/CN=Alice"))
	c, err := Dial(b.srv.Addr(), b.alice, b.trust, b.srv.Identity())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	w, err := c.PutWriter("/data/partial", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(stripedPayload(2 << 20)); err != nil {
		t.Fatal(err)
	}
	if err := w.Abort("disk on fire"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("/data/partial"); err == nil {
		t.Fatal("aborted striped PUT left a file behind")
	}
	if err := c.Put("/data/next", []byte("still works")); err != nil {
		t.Fatalf("session unusable after abort: %v", err)
	}
}

// A JOIN with an unknown token must be refused: the token is the
// capability binding data connections to a granted transfer.
func TestStripedJoinUnknownToken(t *testing.T) {
	b := newBed(t, openAll("/O=Grid/CN=Alice"))
	conn, err := gsitransport.Dial(b.srv.Addr(), gss.Config{
		Credential:   b.alice,
		TrustStore:   b.trust,
		ExpectedPeer: b.srv.Identity(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := make([]byte, stripeTokenLen+4) // all-zero token, idx 0
	msg, err := encodeCmd(opJoin, "", payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(msg); err != nil {
		t.Fatal(err)
	}
	reply, err := conn.Receive()
	if err != nil {
		t.Fatal(err)
	}
	verb, _, body, err := decodeCmd(reply)
	if err != nil || verb != opErr || !strings.Contains(string(body), "unknown transfer token") {
		t.Fatalf("forged JOIN answered %q %q %v", verb, body, err)
	}
}

// A transfer token is bound to the identity that opened it: another
// (fully trusted) identity replaying a stolen token is refused.
func TestStripedTokenBoundToIdentity(t *testing.T) {
	b := newBed(t, openAll("/O=Grid/CN=Alice", "/O=Grid/CN=Bob"))
	c, err := Dial(b.srv.Addr(), b.alice, b.trust, b.srv.Identity())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := b.store.Put(b.alice.Identity(), "/data/f", stripedPayload(1<<16)); err != nil {
		t.Fatal(err)
	}
	grant, err := c.roundTrip(opGetS, "/data/f", encodeStripeGetReq(2))
	if err != nil {
		t.Fatal(err)
	}
	token := grant[12:]

	// Bob steals the token and tries to join Alice's transfer.
	eavesdrop, err := gsitransport.Dial(b.srv.Addr(), gss.Config{
		Credential:   b.bob,
		TrustStore:   b.trust,
		ExpectedPeer: b.srv.Identity(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eavesdrop.Close()
	payload := make([]byte, stripeTokenLen+4)
	copy(payload, token)
	msg, _ := encodeCmd(opJoin, "", payload)
	if err := eavesdrop.Send(msg); err != nil {
		t.Fatal(err)
	}
	reply, err := eavesdrop.Receive()
	if err != nil {
		t.Fatal(err)
	}
	verb, _, body, _ := decodeCmd(reply)
	if verb != opErr || !strings.Contains(string(body), "another identity") {
		t.Fatalf("stolen token accepted: %q %q", verb, body)
	}

	// Alice still completes her transfer normally.
	conns, _, err := c.dialStripes(2, token, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := &GetReader{
		r:        gsitransport.NewStripedReader(context.Background(), conns, 0),
		transfer: transfer{joined: conns},
	}
	got, err := io.ReadAll(g)
	if err != nil || len(got) != 1<<16 {
		t.Fatalf("post-theft transfer: %d bytes, %v", len(got), err)
	}
	g.Close()
}

// Striped third-party transfer: both legs run over parallel stripes
// with the delegated credential, end to end.
func TestThirdPartyTransferStriped(t *testing.T) {
	auth, _ := ca.New(gridcert.MustParseName("/O=Grid/CN=CA"), 24*time.Hour, ca.DefaultPolicy())
	trust := gridcert.NewTrustStore()
	trust.AddRoot(auth.Certificate())
	alice, _ := auth.NewEntity(gridcert.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	srcHost, _ := auth.NewHostEntity(gridcert.MustParseName("/O=Grid/CN=host ssrc"), 12*time.Hour)
	dstHost, _ := auth.NewHostEntity(gridcert.MustParseName("/O=Grid/CN=host sdst"), 12*time.Hour)

	pol := openAll("/O=Grid/CN=Alice")
	srcStore, dstStore := NewStore(pol), NewStore(pol)
	src, err := NewServer("127.0.0.1:0", srcStore, srcHost, trust)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := NewServer("127.0.0.1:0", dstStore, dstHost, trust)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()

	payload := stripedPayload(5<<20 + 99)
	if err := srcStore.Put(alice.Identity(), "/exp/big", payload); err != nil {
		t.Fatal(err)
	}
	if err := ThirdPartyTransfer(alice, trust,
		src.Addr(), src.Identity(),
		dst.Addr(), dst.Identity(),
		"/exp/big", "/mirror/big", 4); err != nil {
		t.Fatal(err)
	}
	got, err := dstStore.Get(alice.Identity(), "/mirror/big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("striped third-party copy mismatch")
	}
}

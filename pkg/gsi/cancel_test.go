package gsi_test

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/pkg/gsi"
)

// blackholeListener accepts TCP connections and never writes a byte, so
// a GSI handshake against it blocks reading token2 until interrupted.
func blackholeListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

// TestConnectCancellationMidHandshake proves the acceptance criterion:
// an in-flight handshake — blocked on the network waiting for the
// peer's token — aborts promptly when the context is canceled.
func TestConnectCancellationMidHandshake(t *testing.T) {
	tb := newTestbed(t)
	ln := blackholeListener(t)
	client, err := tb.env.NewClient(tb.alice)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = client.Connect(ctx, ln.Addr().String())
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Connect succeeded against a blackhole")
	}
	if !errors.Is(err, gsi.ErrContextClosed) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation not surfaced: %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("handshake abort took %v; not prompt", elapsed)
	}
}

// TestConnectDeadlineMidHandshake: a context deadline interrupts the
// blocked handshake with ErrContextClosed / DeadlineExceeded.
func TestConnectDeadlineMidHandshake(t *testing.T) {
	tb := newTestbed(t)
	ln := blackholeListener(t)
	client, err := tb.env.NewClient(tb.alice)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = client.Connect(ctx, ln.Addr().String())
	if err == nil {
		t.Fatal("Connect succeeded against a blackhole")
	}
	if !errors.Is(err, gsi.ErrContextClosed) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline not surfaced: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline abort took %v", elapsed)
	}
}

// TestDeadlineSkewShrinksDeadline: WithDeadlineSkew gives up before the
// caller's deadline, budgeting for peer clock skew.
func TestDeadlineSkewShrinksDeadline(t *testing.T) {
	tb := newTestbed(t)
	ln := blackholeListener(t)
	client, err := tb.env.NewClient(tb.alice, gsi.WithDeadlineSkew(400*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = client.Connect(ctx, ln.Addr().String())
	elapsed := time.Since(start)
	if !errors.Is(err, gsi.ErrContextClosed) {
		t.Fatalf("skewed deadline not surfaced: %v", err)
	}
	// The skewed budget is ~100ms; well before the caller's 500ms.
	if elapsed >= 450*time.Millisecond {
		t.Fatalf("skew not applied: gave up after %v", elapsed)
	}
}

// TestEstablishCancellationBetweenTokens: gss.EstablishContext checks
// the context at token boundaries; a context canceled by the acceptor's
// own clock callback aborts before completion.
func TestEstablishCancellationBetweenTokens(t *testing.T) {
	tb := newTestbed(t)
	ctx, cancel := context.WithCancel(context.Background())
	// The initiator's clock first fires while it processes token2 —
	// cancel there, so the cancellation lands mid-handshake
	// deterministically and the next token boundary must catch it.
	cancelEnv, err := gsi.NewEnvironment(
		gsi.WithTrustStore(tb.env.Trust()),
		gsi.WithClock(func() time.Time {
			cancel()
			return time.Now()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	client, err := cancelEnv.NewClient(tb.alice)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = client.Establish(ctx, gsi.ContextConfig{
		Credential: tb.host,
		TrustStore: tb.env.Trust(),
	})
	if !errors.Is(err, gsi.ErrContextClosed) {
		t.Fatalf("mid-establish cancellation not surfaced: %v", err)
	}
}

// TestCASRequestCancellation: a cancellation that lands while the CAS
// server is processing the request (after the policy scan, before
// signing) aborts the issuance — no assertion is signed for a caller
// that has gone away.
func TestCASRequestCancellation(t *testing.T) {
	tb := newTestbed(t)
	vo, err := tb.ca.NewEntity(gsi.MustParseName("/O=Grid/CN=VO"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	server := gsi.NewCASServer(vo)
	server.AddMember(tb.alice.Identity(), "researchers")
	server.AddPolicy(gsi.Rule{
		Effect:    gsi.EffectPermit,
		Groups:    []string{"researchers"},
		Resources: []string{"data:/*"},
		Actions:   []string{"read"},
	})

	ctx, cancel := context.WithCancel(context.Background())
	server.SetClock(func() time.Time {
		cancel() // fires mid-issuance, between the scan and the signature
		return time.Now()
	})
	client, err := tb.env.NewClient(tb.alice)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.RequestAssertion(ctx, server); !errors.Is(err, gsi.ErrContextClosed) || !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-issuance cancellation not surfaced: %v", err)
	}

	// And a sane request still succeeds afterwards.
	server.SetClock(time.Now)
	a, err := client.RequestAssertion(context.Background(), server)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rules) != 1 {
		t.Fatalf("assertion rules = %d", len(a.Rules))
	}
}

// TestGT3InvokeCancellation: the Figure-3 pipeline run through
// Client.Invoke aborts with the context, mid-RPC, over real HTTP.
func TestGT3InvokeCancellation(t *testing.T) {
	boot, err := gsi.NewBootstrap("/O=Grid/CN=CA", "/O=Grid/CN=host inv", nil)
	if err != nil {
		t.Fatal(err)
	}
	url, shutdown, err := gsi.ServeHTTP(boot.Stack.Container, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	alice, err := boot.CA.NewEntity(gsi.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	env, err := gsi.NewEnvironment(gsi.WithTrustStore(boot.Trust))
	if err != nil {
		t.Fatal(err)
	}
	client, err := env.NewClient(alice)
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := client.Invoke(canceled, url, "security/audit", "Count", nil); !errors.Is(err, gsi.ErrContextClosed) {
		t.Fatalf("canceled Invoke not surfaced: %v", err)
	}
	// Live context: full pipeline succeeds.
	if out, _, err := client.Invoke(context.Background(), url, "security/audit", "Count", nil); err != nil {
		t.Fatalf("live Invoke: %v (out=%q)", err, out)
	}
	// Mid-RPC: a SOAP endpoint that never answers is abandoned at the
	// caller's deadline, not at the SOAP client's own 30 s timeout.
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer hung.Close()
	defer close(release)
	deadline, cancelDeadline := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancelDeadline()
	start := time.Now()
	_, _, err = client.Invoke(deadline, hung.URL, "security/audit", "Count", nil)
	if took := time.Since(start); !errors.Is(err, gsi.ErrContextClosed) || took > 2*time.Second {
		t.Fatalf("Invoke against a hung endpoint: %v after %v", err, took)
	}
}

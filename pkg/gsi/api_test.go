package gsi_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/authz"
	"repro/internal/ogsa"
	"repro/pkg/gsi"
)

// echoHandler answers "echo" with the body and "whoami" with the
// authenticated peer identity.
func echoHandler(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
	switch op {
	case "echo":
		return body, nil
	case "whoami":
		return []byte(peer.Identity.String()), nil
	default:
		return nil, fmt.Errorf("no such op %q", op)
	}
}

// permitOnly builds an environment authorizer admitting only subject.
func permitOnly(subject string) gsi.Engine {
	return &authz.PolicyEngine{
		Policy: gsi.NewPolicy(gsi.Rule{
			Effect:    gsi.EffectPermit,
			Subjects:  []string{subject},
			Resources: []string{"*"},
			Actions:   []string{"*"},
		}),
		DefaultDeny: true,
	}
}

// transportRoundTrip drives one transport end to end through the
// handles: serve, connect, exchange, peer identity, authorization deny.
func transportRoundTrip(t *testing.T, transport gsi.Transport, opts ...gsi.Option) {
	t.Helper()
	tb := newTestbed(t)
	authEnv, err := gsi.NewEnvironment(
		gsi.WithTrustStore(tb.env.Trust()),
		gsi.WithAuthorizer(permitOnly("/O=Grid/CN=Alice")),
	)
	if err != nil {
		t.Fatal(err)
	}

	server, err := authEnv.NewServer(tb.host, gsi.WithTransport(transport))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ep, err := server.Serve(ctx, "127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	clientOpts := append([]gsi.Option{gsi.WithTransport(transport)}, opts...)
	client, err := tb.env.NewClient(tb.alice, clientOpts...)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := client.Connect(ctx, ep.Addr())
	if err != nil {
		t.Fatalf("%s connect: %v", transport, err)
	}
	defer sess.Close()

	out, err := sess.Exchange(ctx, "echo", []byte("ping"))
	if err != nil || string(out) != "ping" {
		t.Fatalf("%s echo: %v %q", transport, err, out)
	}
	who, err := sess.Exchange(ctx, "whoami", nil)
	if err != nil || string(who) != "/O=Grid/CN=Alice" {
		t.Fatalf("%s whoami: %v %q", transport, err, who)
	}

	// Bob authenticates but the environment's authorizer denies him.
	bob, err := tb.ca.NewEntity(gsi.MustParseName("/O=Grid/CN=Bob"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	bobClient, err := tb.env.NewClient(bob, clientOpts...)
	if err != nil {
		t.Fatal(err)
	}
	bobSess, err := bobClient.Connect(ctx, ep.Addr())
	if err != nil {
		t.Fatalf("%s bob connect: %v", transport, err)
	}
	defer bobSess.Close()
	if _, err := bobSess.Exchange(ctx, "echo", []byte("hi")); !errors.Is(err, gsi.ErrUnauthorized) {
		t.Fatalf("%s bob exchange not ErrUnauthorized: %v", transport, err)
	}
}

// TestGT2SessionRoundTrip: the raw-socket transport through the handles.
func TestGT2SessionRoundTrip(t *testing.T) {
	transportRoundTrip(t, gsi.TransportGT2())
}

// TestGT3SessionRoundTrip: the SOAP/HTTP transport through the same
// handles — callers pick transport by option, not by function name.
func TestGT3SessionRoundTrip(t *testing.T) {
	transportRoundTrip(t, gsi.TransportGT3())
}

// TestGT3SignedSessionRoundTrip: the stateless per-message-signature
// mechanism over GT3.
func TestGT3SignedSessionRoundTrip(t *testing.T) {
	transportRoundTrip(t, gsi.TransportGT3(), gsi.WithMessageProtection(gsi.ProtectionSigned))
}

// TestSessionPeerIdentity: the client sees the server's identity on GT2
// and GT3 private sessions.
func TestSessionPeerIdentity(t *testing.T) {
	for _, transport := range []gsi.Transport{gsi.TransportGT2(), gsi.TransportGT3()} {
		tb := newTestbed(t)
		server, err := tb.env.NewServer(tb.host, gsi.WithTransport(transport))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		ep, err := server.Serve(ctx, "127.0.0.1:0", echoHandler)
		if err != nil {
			t.Fatal(err)
		}
		client, err := tb.env.NewClient(tb.alice, gsi.WithTransport(transport))
		if err != nil {
			t.Fatal(err)
		}
		sess, err := client.Connect(ctx, ep.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if got := sess.Peer().Identity; !got.Equal(tb.host.Identity()) {
			t.Fatalf("%s peer = %q, want %q", transport, got, tb.host.Identity())
		}
		sess.Close()
		ep.Close()
	}
}

// TestWithExpectedPeer: a peer-identity pin that does not match fails
// the handshake with an authentication error.
func TestWithExpectedPeer(t *testing.T) {
	tb := newTestbed(t)
	server, err := tb.env.NewServer(tb.host)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ep, err := server.Serve(ctx, "127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	pinned, err := tb.env.NewClient(tb.alice,
		gsi.WithExpectedPeer(gsi.MustParseName("/O=Grid/CN=host other")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pinned.Connect(ctx, ep.Addr()); !errors.Is(err, gsi.ErrAuthentication) {
		t.Fatalf("identity mismatch not ErrAuthentication: %v", err)
	}

	correct, err := tb.env.NewClient(tb.alice,
		gsi.WithExpectedPeer(tb.host.Identity()))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := correct.Connect(ctx, ep.Addr())
	if err != nil {
		t.Fatalf("pinned connect: %v", err)
	}
	sess.Close()
}

// TestWithDelegationFlag: WithDelegation sets the GSS delegation flag,
// visible to the acceptor.
func TestWithDelegationFlag(t *testing.T) {
	tb := newTestbed(t)
	client, err := tb.env.NewClient(tb.alice, gsi.WithDelegation())
	if err != nil {
		t.Fatal(err)
	}
	_, actx, err := client.Establish(context.Background(), gsi.ContextConfig{
		Credential: tb.host,
		TrustStore: tb.env.Trust(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !actx.DelegationRequested() {
		t.Fatal("delegation flag not visible to acceptor")
	}
}

// TestWithRejectLimited: a limited proxy is refused by a server built
// with WithRejectLimited.
func TestWithRejectLimited(t *testing.T) {
	tb := newTestbed(t)
	aliceClient, err := tb.env.NewClient(tb.alice)
	if err != nil {
		t.Fatal(err)
	}
	limited, err := aliceClient.Proxy(gsi.ProxyOptions{
		Lifetime: time.Hour,
		Variant:  gsi.ProxyLimited,
	})
	if err != nil {
		t.Fatal(err)
	}
	server, err := tb.env.NewServer(tb.host, gsi.WithRejectLimited())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ep, err := server.Serve(ctx, "127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	limClient, err := tb.env.NewClient(limited)
	if err != nil {
		t.Fatal(err)
	}
	// The initiator completes first in the 3-token handshake, so the
	// acceptor's rejection surfaces on the first exchange at the latest.
	sess, err := limClient.Connect(ctx, ep.Addr())
	if err == nil {
		_, err = sess.Exchange(ctx, "echo", []byte("x"))
		sess.Close()
	}
	if err == nil {
		t.Fatal("limited proxy accepted by WithRejectLimited server")
	}
	full, err := tb.env.NewClient(tb.alice)
	if err != nil {
		t.Fatal(err)
	}
	fullSess, err := full.Connect(ctx, ep.Addr())
	if err != nil {
		t.Fatalf("full credential refused: %v", err)
	}
	fullSess.Close()
}

// TestSubmitJobThroughClient: the Figure-4 GRAM flow through the new
// handle, context-first.
func TestSubmitJobThroughClient(t *testing.T) {
	tb := newTestbed(t)
	gm := gsi.NewGridMap()
	gm.Add(tb.alice.Identity(), "alice")
	resource, err := gsi.NewJobResource(tb.host, tb.env.Trust(), gm)
	if err != nil {
		t.Fatal(err)
	}
	if err := resource.CreateAccount("alice"); err != nil {
		t.Fatal(err)
	}
	client, err := tb.env.NewClient(tb.alice)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := client.Proxy(gsi.ProxyOptions{Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	proxyClient, err := tb.env.NewClient(proxy)
	if err != nil {
		t.Fatal(err)
	}
	mjs, err := proxyClient.SubmitJob(context.Background(), resource, gsi.JobDescription{
		Executable:         gsi.JobProgram,
		DelegateCredential: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mjs.Job().State().String() != "Done" {
		t.Fatalf("job state = %v", mjs.Job().State())
	}
	// Canceled submissions never reach the resource.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := proxyClient.SubmitJob(canceled, resource, gsi.JobDescription{Executable: gsi.JobProgram}); !errors.Is(err, gsi.ErrContextClosed) {
		t.Fatalf("canceled SubmitJob: %v", err)
	}
}

// TestCASFlowThroughHandles: Figure 2 end to end on the new API —
// request assertion, embed, enforce.
func TestCASFlowThroughHandles(t *testing.T) {
	tb := newTestbed(t)
	vo, err := tb.ca.NewEntity(gsi.MustParseName("/O=Grid/CN=VO"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	casServer := gsi.NewCASServer(vo)
	casServer.AddMember(tb.alice.Identity(), "researchers")
	casServer.AddPolicy(gsi.Rule{
		Effect:    gsi.EffectPermit,
		Groups:    []string{"researchers"},
		Resources: []string{"data:/climate/*"},
		Actions:   []string{"read"},
	})
	client, err := tb.env.NewClient(tb.alice)
	if err != nil {
		t.Fatal(err)
	}
	assertion, err := client.RequestAssertion(context.Background(), casServer)
	if err != nil {
		t.Fatal(err)
	}
	restricted, err := client.EmbedAssertion(assertion)
	if err != nil {
		t.Fatal(err)
	}
	enforcer := gsi.NewCASEnforcer(tb.env.Trust(), gsi.NewPolicy(gsi.Rule{
		Effect:    gsi.EffectPermit,
		Subjects:  []string{"*"},
		Resources: []string{"data:/*"},
		Actions:   []string{"read"},
	}))
	enforcer.TrustVO(casServer.Certificate())
	res, err := enforcer.Authorize(restricted.Chain, "data:/climate/run1", "read", time.Time{})
	if err != nil || res.Decision != gsi.Permit {
		t.Fatalf("%v %+v", err, res)
	}
}

// whoamiReply renders what a handler saw of its peer: the identity and
// the gridmap account the authorization step mapped it to.
func whoamiReply(peer gsi.Peer) string {
	return peer.Identity.String() + "|" + peer.LocalAccount
}

// TestAuthorizationModesByEntryPoint drives every server-side entry
// point under each authorization mode. Alice is permitted everywhere;
// Bob authenticates but is permitted only where nothing decides. In
// pipeline mode the handler sees Alice's gridmap account. Exchange
// servers take no streams, so the GT3 exchange rows run on a container
// whose only authorization step is the exchange gate.
func TestAuthorizationModesByEntryPoint(t *testing.T) {
	tb := newTestbed(t)
	bob, err := tb.ca.NewEntity(gsi.MustParseName("/O=Grid/CN=Bob"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	engineEnv, err := gsi.NewEnvironment(
		gsi.WithTrustStore(tb.env.Trust()),
		gsi.WithAuthorizer(permitOnly("/O=Grid/CN=Alice")),
	)
	if err != nil {
		t.Fatal(err)
	}
	gm := gsi.NewGridMap()
	gm.Add(tb.alice.Identity(), "alice")
	local := gsi.NewPolicy(gsi.Rule{
		Effect:    gsi.EffectPermit,
		Subjects:  []string{"/O=Grid/CN=Alice"},
		Resources: []string{"ogsa:gsi.exchange"},
		Actions:   []string{"*"},
	})

	modes := []struct {
		name      string
		env       *gsi.Environment
		opts      []gsi.Option
		bobDenied bool
		account   string // Alice's LocalAccount as the handler sees it
	}{
		{"pipeline", tb.env, []gsi.Option{gsi.WithLocalPolicy(local), gsi.WithGridMap(gm)}, true, "alice"},
		{"engine", engineEnv, nil, true, ""},
		{"authenticated-only", tb.env, nil, false, ""},
	}
	exchange := func(ctx context.Context, c *gsi.Client, addr string) (string, error) {
		out, err := c.Exchange(ctx, addr, "whoami", nil)
		return string(out), err
	}
	stream := func(stripes int) func(context.Context, *gsi.Client, string) (string, error) {
		return func(ctx context.Context, c *gsi.Client, addr string) (string, error) {
			st, err := c.OpenStripedStream(ctx, addr, "whoami", gsi.WithStripes(stripes))
			if err != nil {
				return "", err
			}
			err = st.CloseWrite() // nothing to send
			out, rerr := io.ReadAll(st)
			if err == nil {
				err = rerr
			}
			if cerr := st.Close(); err == nil {
				err = cerr
			}
			return string(out), err
		}
	}
	entries := []struct {
		name      string
		transport gsi.Transport
		streams   bool
		call      func(context.Context, *gsi.Client, string) (string, error)
	}{
		{"gt2-exchange", gsi.TransportGT2(), false, exchange},
		{"gt2-stream", gsi.TransportGT2(), true, stream(1)},
		{"gt2-striped", gsi.TransportGT2(), true, stream(2)},
		{"gt3-exchange", gsi.TransportGT3(), false, exchange},
		{"gt3-stream", gsi.TransportGT3(), true, stream(1)},
	}
	handler := func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
		return []byte(whoamiReply(peer)), nil
	}
	streamHandler := func(ctx context.Context, peer gsi.Peer, op string, st gsi.Stream) error {
		_, err := io.WriteString(st, whoamiReply(peer))
		return err
	}

	for _, m := range modes {
		for _, e := range entries {
			t.Run(m.name+"/"+e.name, func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				opts := append([]gsi.Option{gsi.WithTransport(e.transport)}, m.opts...)
				if e.streams {
					opts = append(opts, gsi.WithStreamHandler(streamHandler))
				}
				server, err := m.env.NewServer(tb.host, opts...)
				if err != nil {
					t.Fatal(err)
				}
				ep, err := server.Serve(ctx, "127.0.0.1:0", handler)
				if err != nil {
					t.Fatal(err)
				}
				defer ep.Close()

				alice, err := tb.env.NewClient(tb.alice, gsi.WithTransport(e.transport))
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.call(ctx, alice, ep.Addr())
				if want := "/O=Grid/CN=Alice|" + m.account; err != nil || got != want {
					t.Fatalf("alice: got %q, %v; want %q", got, err, want)
				}

				bobClient, err := tb.env.NewClient(bob, gsi.WithTransport(e.transport))
				if err != nil {
					t.Fatal(err)
				}
				got, err = e.call(ctx, bobClient, ep.Addr())
				switch {
				case m.bobDenied && !errors.Is(err, gsi.ErrUnauthorized):
					t.Fatalf("bob: got %q, %v; want ErrUnauthorized", got, err)
				case !m.bobDenied && (err != nil || got != "/O=Grid/CN=Bob|"):
					t.Fatalf("bob: got %q, %v; want permitted without an account", got, err)
				}
			})
		}
	}
}

// TestAdminRefusedAuthenticatedOnly: a GT3 server with WithAdmin but
// neither an authorization pipeline nor an environment authorizer must
// be refused at Serve — with or without a stream handler — so no
// authenticated peer can reach gsi.__admin on an endpoint where nothing
// decides.
func TestAdminRefusedAuthenticatedOnly(t *testing.T) {
	tb := newTestbed(t)
	streamHandler := func(ctx context.Context, peer gsi.Peer, op string, st gsi.Stream) error { return nil }
	for _, streams := range []bool{false, true} {
		opts := []gsi.Option{gsi.WithTransport(gsi.TransportGT3()), gsi.WithAdmin()}
		if streams {
			opts = append(opts, gsi.WithStreamHandler(streamHandler))
		}
		server, err := tb.env.NewServer(tb.host, opts...)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		ep, err := server.Serve(ctx, "127.0.0.1:0", echoHandler)
		if err == nil {
			defer ep.Close()
			client, cerr := tb.env.NewClient(tb.alice, gsi.WithTransport(gsi.TransportGT3()))
			if cerr != nil {
				t.Fatal(cerr)
			}
			if _, _, ierr := client.Invoke(ctx, ep.Addr(), ogsa.AdminHandle, ogsa.AdminOpStats, nil); ierr == nil {
				t.Errorf("streams=%v: an unprivileged peer read gsi.__admin Stats", streams)
			}
			t.Fatalf("streams=%v: Serve accepted WithAdmin on an authenticated-only endpoint", streams)
		}
	}
}

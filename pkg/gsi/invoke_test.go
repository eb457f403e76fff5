package gsi_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/ogsa"
	"repro/internal/wssec"
	"repro/pkg/gsi"
)

// probeService answers how its call arrived: over a secure
// conversation or as a signed message, and under which trace.
type probeService struct{ *ogsa.Base }

func (s *probeService) Invoke(call *gsi.Call) ([]byte, error) {
	if reply, handled, err := s.HandleStandardOp(call); handled {
		return reply, err
	}
	if call.Op == "trace" {
		return []byte(call.Trace.TraceID.String()), nil
	}
	if call.Conversation {
		return []byte("conversation"), nil
	}
	return []byte("signed"), nil
}

// invokeBed is a bootstrap stack publishing probeService as "probe",
// served over HTTP, plus an environment sharing its trust roots.
type invokeBed struct {
	boot *gsi.Bootstrap
	env  *gsi.Environment
	url  string
}

func newInvokeBed(t *testing.T) *invokeBed {
	t.Helper()
	boot, err := gsi.NewBootstrap("/O=Grid/CN=CA", "/O=Grid/CN=host probe", nil)
	if err != nil {
		t.Fatal(err)
	}
	env, err := gsi.NewEnvironment(gsi.WithTrustStore(boot.Trust))
	if err != nil {
		t.Fatal(err)
	}
	b := &invokeBed{boot: boot, env: env}
	b.url = serveContainer(t, boot.Stack.Container)
	return b
}

// serveContainer publishes probeService on c and serves c over HTTP.
func serveContainer(t *testing.T, c *gsi.Container) string {
	t.Helper()
	c.Publish("probe", &probeService{Base: ogsa.NewBase()})
	url, shutdown, err := gsi.ServeHTTP(c, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown() })
	return url
}

func (b *invokeBed) client(t *testing.T, opts ...gsi.Option) *gsi.Client {
	t.Helper()
	alice, err := b.boot.CA.NewEntity(gsi.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	client, err := b.env.NewClient(alice, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return client
}

// TestInvokeHonoursExpectedPeer: Invoke dials with the client's
// resolved options, so peer pinning refuses a container whose host is
// not the expected one, exactly as Connect does.
func TestInvokeHonoursExpectedPeer(t *testing.T) {
	b := newInvokeBed(t)
	client := b.client(t, gsi.WithTransport(gsi.TransportGT3()),
		gsi.WithExpectedPeer(gsi.MustParseName("/O=Grid/CN=host elsewhere")))
	ctx := context.Background()
	if _, err := client.Connect(ctx, b.url); !errors.Is(err, gsi.ErrAuthentication) {
		t.Fatalf("Connect to the wrong peer: %v", err)
	}
	if _, _, err := client.Invoke(ctx, b.url, "probe", "how", nil); !errors.Is(err, gsi.ErrAuthentication) {
		t.Fatalf("Invoke to the wrong peer: %v", err)
	}
}

// TestInvokeMechanism: the mechanism Invoke uses is the one the
// client's protection level names, and a target that does not publish
// it is refused before any conversation opens.
func TestInvokeMechanism(t *testing.T) {
	for _, tc := range []struct {
		name          string
		policy        *wssec.PolicyDocument // nil: the stack's default policy
		opts          []gsi.Option
		wantMech      wssec.Mechanism
		wantReply     string
		wantErr       error
		conversations int
	}{
		{name: "default client", wantMech: wssec.MechSecureConversation,
			wantReply: "conversation", conversations: 1},
		{name: "signed client", opts: []gsi.Option{gsi.WithMessageProtection(gsi.ProtectionSigned)},
			wantMech: wssec.MechMessageSignature, wantReply: "signed"},
		{name: "conversation client, signed-only container", policy: &wssec.PolicyDocument{
			Mechanisms:         []wssec.Mechanism{wssec.MechMessageSignature},
			AcceptedTokenTypes: []string{"gsi:proxy"},
		}, wantErr: wssec.ErrNoAgreement},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newInvokeBed(t)
			container, url := b.boot.Stack.Container, b.url
			if tc.policy != nil {
				var err error
				container, err = ogsa.NewContainer(ogsa.ContainerConfig{
					Name:       "custom-policy",
					Credential: b.boot.Host,
					TrustStore: b.boot.Trust,
					Policy:     tc.policy,
				})
				if err != nil {
					t.Fatal(err)
				}
				url = serveContainer(t, container)
			}
			out, trace, err := b.client(t, tc.opts...).Invoke(context.Background(), url, "probe", "how", nil)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) || !strings.Contains(err.Error(), "xmldsig") {
					t.Fatalf("err = %v, want %v naming the published mechanisms", err, tc.wantErr)
				}
			} else if err != nil {
				t.Fatal(err)
			}
			if trace.Mechanism != tc.wantMech || string(out) != tc.wantReply {
				t.Fatalf("mechanism %q reply %q, want %q %q", trace.Mechanism, out, tc.wantMech, tc.wantReply)
			}
			if n := container.ConversationManager().Sessions(); n != tc.conversations {
				t.Fatalf("conversations = %d, want %d", n, tc.conversations)
			}
		})
	}
}

// TestPooledInvokeSharesConversation: a pooling client's Invokes check
// one GT3 session out again and again, so the container sees one
// conversation, and only the first call pays token processing.
func TestPooledInvokeSharesConversation(t *testing.T) {
	b := newInvokeBed(t)
	client := b.client(t, gsi.WithMaxIdle(1))
	for i := 0; i < 5; i++ {
		_, trace, err := client.Invoke(context.Background(), b.url, "probe", "how", nil)
		if err != nil {
			t.Fatal(err)
		}
		if (i == 0) != (trace.TokenProcessing > 0) {
			t.Fatalf("call %d: token processing %v", i, trace.TokenProcessing)
		}
	}
	if st := client.Pool().Stats(); st.Dials != 1 {
		t.Fatalf("pool dials = %d, want 1 (%+v)", st.Dials, st)
	}
	if n := b.boot.Stack.Container.ConversationManager().Sessions(); n != 1 {
		t.Fatalf("conversations = %d, want 1", n)
	}
}

// TestInvokeTraced: a traced Invoke is one client.invoke root span
// with the policy fetch and the dial as children, and its trace
// context reaches the container with the call.
func TestInvokeTraced(t *testing.T) {
	b := newInvokeBed(t)
	client := b.client(t, gsi.WithTracing())
	out, _, err := client.Invoke(context.Background(), b.url, "probe", "trace", nil)
	if err != nil {
		t.Fatal(err)
	}
	root := waitSpans(t, client.Tracer(), gsi.TraceQuery{Op: "client.invoke"}, 1)[0]
	if string(out) != root.TraceID.String() {
		t.Fatalf("container saw trace %q, client root is %s", out, root.TraceID)
	}
	ops := opCount(waitSpans(t, client.Tracer(), gsi.TraceQuery{TraceID: root.TraceID.String(), N: 10}, 3))
	if ops["client.policy"] != 1 || ops["client.connect"] != 1 {
		t.Fatalf("spans of the trace: %v", ops)
	}
}

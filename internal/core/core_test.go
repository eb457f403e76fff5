package core_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/authz"
	"repro/internal/core"
	"repro/internal/gridcert"
	"repro/internal/ogsa"
	"repro/internal/soap"
	"repro/internal/wssec"
	"repro/pkg/gsi"
)

// demoService echoes with its caller's identity.
type demoService struct{ *ogsa.Base }

func (s *demoService) Invoke(call *ogsa.Call) ([]byte, error) {
	if reply, handled, err := s.HandleStandardOp(call); handled {
		return reply, err
	}
	if call.Op == "whoami" {
		return []byte(call.Caller.Name.String()), nil
	}
	return append([]byte("ok:"), call.Body...), nil
}

// servedBootstrap boots a stack publishing demoService as "app" and
// serves it over HTTP, returning the bootstrap and the SOAP URL.
func servedBootstrap(t *testing.T, authorizer authz.Engine) (*core.Bootstrap, string) {
	t.Helper()
	boot, err := core.NewBootstrap("/O=Grid/CN=CA", "/O=Grid/CN=host s1", authorizer)
	if err != nil {
		t.Fatal(err)
	}
	boot.Stack.Container.Publish("app", &demoService{Base: ogsa.NewBase()})
	url, shutdown, err := gsi.ServeHTTP(boot.Stack.Container, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown() })
	return boot, url
}

// newClient builds a facade client for a new entity of boot's CA.
func newClient(t *testing.T, boot *core.Bootstrap, dn string, opts ...gsi.Option) *gsi.Client {
	t.Helper()
	env, err := gsi.NewEnvironment(gsi.WithTrustStore(boot.Trust))
	if err != nil {
		t.Fatal(err)
	}
	var cred *gridcert.Credential
	if dn != "" {
		if cred, err = boot.CA.NewEntity(gridcert.MustParseName(dn), 12*time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	client, err := env.NewClient(cred, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return client
}

func TestBootstrapAndStackServices(t *testing.T) {
	boot, err := core.NewBootstrap("/O=Grid/CN=CA", "/O=Grid/CN=host s1", nil)
	if err != nil {
		t.Fatal(err)
	}
	alice, err := boot.CA.NewEntity(gridcert.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	client := &ogsa.Client{
		Transport:  soap.Pipe(boot.Stack.Container.Dispatcher()),
		Credential: alice,
		TrustStore: boot.Trust,
	}
	// The credential-processing service validates chains.
	reply, err := client.InvokeSigned("security/credential-processing", "ValidateChain",
		gridcert.EncodeChain(alice.Chain))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "/O=Grid/CN=Alice" {
		t.Fatalf("ValidateChain = %q", reply)
	}
	// The audit service saw the calls.
	cnt, err := client.InvokeSigned("security/audit", "Count", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(cnt) == "0" {
		t.Fatal("audit log empty")
	}
	verify, err := client.InvokeSigned("security/audit", "Verify", nil)
	if err != nil || string(verify) != "intact" {
		t.Fatalf("audit verify: %q %v", verify, err)
	}
}

func TestFigure3PipelineStateful(t *testing.T) {
	boot, url := servedBootstrap(t, nil)
	client := newClient(t, boot, "/O=Grid/CN=Alice")
	out, trace, err := client.Invoke(context.Background(), url, "app", "whoami", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "/O=Grid/CN=Alice" {
		t.Fatalf("out = %q", out)
	}
	if trace.Mechanism != wssec.MechSecureConversation {
		t.Fatalf("mechanism = %q, want wssc", trace.Mechanism)
	}
	if trace.PolicyFetch <= 0 || trace.TokenProcessing <= 0 || trace.Invocation <= 0 {
		t.Fatalf("trace not populated: %+v", trace)
	}
	if trace.Total() < trace.Invocation {
		t.Fatal("Total inconsistent")
	}
}

func TestFigure3PipelineStateless(t *testing.T) {
	boot, url := servedBootstrap(t, nil)
	client := newClient(t, boot, "/O=Grid/CN=Alice", gsi.WithMessageProtection(gsi.ProtectionSigned))
	out, trace, err := client.Invoke(context.Background(), url, "app", "whoami", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "/O=Grid/CN=Alice" {
		t.Fatalf("out = %q", out)
	}
	if trace.Mechanism != wssec.MechMessageSignature {
		t.Fatalf("mechanism = %q, want xmldsig", trace.Mechanism)
	}
}

func TestPipelineAuthorizationDeny(t *testing.T) {
	pol := authz.NewPolicy(authz.DenyOverrides).Add(authz.Rule{
		Effect:    authz.EffectPermit,
		Subjects:  []string{"/O=Grid/CN=Alice"},
		Resources: []string{"ogsa:app"},
		Actions:   []string{"whoami"},
	})
	boot, url := servedBootstrap(t, &authz.PolicyEngine{Policy: pol, DefaultDeny: true})
	ctx := context.Background()
	alice := newClient(t, boot, "/O=Grid/CN=Alice")
	if _, _, err := alice.Invoke(ctx, url, "app", "whoami", nil); err != nil {
		t.Fatalf("alice: %v", err)
	}
	bob := newClient(t, boot, "/O=Grid/CN=Bob")
	_, _, err := bob.Invoke(ctx, url, "app", "whoami", nil)
	if !errors.Is(err, gsi.ErrUnauthorized) || !strings.Contains(err.Error(), "denied") {
		t.Fatalf("bob: %v", err)
	}
}

// TestInvokeAnonymousRefused: a client holding no credential cannot
// chain to any trust root the stack publishes, so step 2 refuses it
// before any conversation is opened.
func TestInvokeAnonymousRefused(t *testing.T) {
	boot, url := servedBootstrap(t, nil)
	client := newClient(t, boot, "", gsi.WithAnonymous())
	_, _, err := client.Invoke(context.Background(), url, "app", "op", nil)
	if !errors.Is(err, wssec.ErrNoAgreement) {
		t.Fatalf("anonymous Invoke: %v", err)
	}
	if n := boot.Stack.Container.ConversationManager().Sessions(); n != 0 {
		t.Fatalf("conversations opened = %d", n)
	}
}

func TestPipelineOverHTTP(t *testing.T) {
	boot, url := servedBootstrap(t, nil)
	client := newClient(t, boot, "/O=Grid/CN=Alice")
	out, _, err := client.Invoke(context.Background(), url, "app", "echo", []byte("over the wire"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "ok:over the wire" {
		t.Fatalf("out = %q", out)
	}
	// The stack's audit service recorded the delivered call.
	events, _, err := client.Invoke(context.Background(), url, "security/audit", "Query", []byte("invoke"))
	if err != nil || !strings.Contains(string(events), "app/echo") {
		t.Fatalf("audit query: %v %q", err, events)
	}
}

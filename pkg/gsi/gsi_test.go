package gsi_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/ogsa"
	"repro/pkg/gsi"
)

// TestPublicAPIQuickstart exercises the documented quickstart flow
// through the public facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	authority, err := gsi.NewCA("/O=Grid/CN=Demo CA", 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore()
	if err := trust.AddRoot(authority.Certificate()); err != nil {
		t.Fatal(err)
	}
	alice, err := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	host, err := authority.NewHostEntity(gsi.MustParseName("/O=Grid/CN=host demo"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// Single sign-on: create a proxy.
	p, err := gsi.NewProxy(alice, gsi.ProxyOptions{Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// Mutual authentication with the proxy.
	env, err := gsi.NewEnvironment(gsi.WithTrustStore(trust))
	if err != nil {
		t.Fatal(err)
	}
	client, err := env.NewClient(p)
	if err != nil {
		t.Fatal(err)
	}
	ictx, actx, err := client.Establish(context.Background(),
		gsi.ContextConfig{Credential: host, TrustStore: trust})
	if err != nil {
		t.Fatal(err)
	}
	if actx.Peer().Identity.String() != "/O=Grid/CN=Alice" {
		t.Fatalf("peer = %q", actx.Peer().Identity)
	}
	// Protected message.
	w, err := ictx.Wrap([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if pt, err := actx.Unwrap(w); err != nil || string(pt) != "hello" {
		t.Fatalf("unwrap: %q %v", pt, err)
	}
}

type pingService struct{ *ogsa.Base }

func (s *pingService) Invoke(call *gsi.Call) ([]byte, error) {
	if reply, handled, err := s.HandleStandardOp(call); handled {
		return reply, err
	}
	return []byte("pong:" + call.Caller.Name.String()), nil
}

func TestPublicAPIServiceStack(t *testing.T) {
	boot, err := gsi.NewBootstrap("/O=Grid/CN=CA", "/O=Grid/CN=host svc", nil)
	if err != nil {
		t.Fatal(err)
	}
	boot.Stack.Container.Publish("ping", &pingService{Base: ogsa.NewBase()})
	alice, err := boot.CA.NewEntity(gsi.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	req := &gsi.Requestor{Credential: alice, Trust: boot.Trust}
	out, trace, err := req.Invoke(gsi.PipeTransport(boot.Stack.Container), "ping", "ping", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "pong:/O=Grid/CN=Alice" {
		t.Fatalf("out = %q", out)
	}
	if trace.Total() <= 0 {
		t.Fatal("no trace")
	}
}

func TestPublicAPIOverHTTP(t *testing.T) {
	boot, err := gsi.NewBootstrap("/O=Grid/CN=CA", "/O=Grid/CN=host svc", nil)
	if err != nil {
		t.Fatal(err)
	}
	boot.Stack.Container.Publish("ping", &pingService{Base: ogsa.NewBase()})
	url, shutdown, err := gsi.ServeHTTP(boot.Stack.Container, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	alice, _ := boot.CA.NewEntity(gsi.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	req := &gsi.Requestor{Credential: alice, Trust: boot.Trust}
	out, _, err := req.Invoke(gsi.HTTPTransport(url), "ping", "ping", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "pong:/O=Grid/CN=Alice" {
		t.Fatalf("out = %q", out)
	}
}

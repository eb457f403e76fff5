package gsi_test

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/gsitransport"
	"repro/internal/proxy"
	"repro/pkg/gsi"
)

// TestFacadeCASFlow drives the CAS helpers of the public API.
func TestFacadeCASFlow(t *testing.T) {
	authority, err := gsi.NewCA("/O=Grid/CN=CA", 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore()
	if err := trust.AddRoot(authority.Certificate()); err != nil {
		t.Fatal(err)
	}
	alice, _ := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	voCred, _ := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=VO"), 12*time.Hour)

	server := gsi.NewCASServer(voCred)
	server.AddMember(alice.Identity(), "g")
	server.AddPolicy(gsi.Rule{
		Effect:    gsi.EffectPermit,
		Groups:    []string{"g"},
		Resources: []string{"r:/*"},
		Actions:   []string{"read"},
	})
	assertion, err := server.IssueAssertion(alice.Identity())
	if err != nil {
		t.Fatal(err)
	}
	env, err := gsi.NewEnvironment(gsi.WithTrustStore(trust))
	if err != nil {
		t.Fatal(err)
	}
	client, err := env.NewClient(alice)
	if err != nil {
		t.Fatal(err)
	}
	cred, err := client.EmbedAssertion(assertion)
	if err != nil {
		t.Fatal(err)
	}
	enforcer := gsi.NewCASEnforcer(trust, gsi.NewPolicy(gsi.Rule{
		Effect:    gsi.EffectPermit,
		Subjects:  []string{"*"},
		Resources: []string{"r:/*"},
		Actions:   []string{"read", "write"},
	}))
	enforcer.TrustVO(server.Certificate())
	res, err := enforcer.Authorize(cred.Chain, "r:/x", "read", time.Time{})
	if err != nil || res.Decision != gsi.Permit {
		t.Fatalf("%v %+v", err, res)
	}
}

// TestFacadeMyProxyAndGridMap drives the remaining constructors.
func TestFacadeMyProxyAndGridMap(t *testing.T) {
	authority, _ := gsi.NewCA("/O=Grid/CN=CA", 24*time.Hour)
	alice, _ := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)

	repo := gsi.NewMyProxy()
	deposit, err := gsi.NewProxy(alice, gsi.ProxyOptions{Lifetime: 2 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Store("alice", "pw", deposit, time.Hour); err != nil {
		t.Fatal(err)
	}
	info, err := repo.Info("alice")
	if err != nil || !info.Identity.Equal(alice.Identity()) {
		t.Fatalf("%v %+v", err, info)
	}

	gm := gsi.NewGridMap()
	gm.Add(alice.Identity(), "alice")
	if acct, ok := gm.Lookup(alice.Identity()); !ok || acct != "alice" {
		t.Fatal("gridmap lookup failed")
	}
	if _, err := gsi.GenerateKey(); err != nil {
		t.Fatal(err)
	}
	if _, err := gsi.ParseName("not-a-dn"); err == nil {
		t.Fatal("ParseName accepted junk")
	}
	if _, err := gsi.NewCA("junk", time.Hour); err == nil {
		t.Fatal("NewCA accepted junk subject")
	}
}

// TestFacadeDialGSI covers a raw GT2 record stream between facade
// credentials: gsitransport.Dial against a facade-configured listener.
func TestFacadeDialGSI(t *testing.T) {
	authority, _ := gsi.NewCA("/O=Grid/CN=CA", 24*time.Hour)
	trust := gsi.NewTrustStore()
	trust.AddRoot(authority.Certificate())
	alice, _ := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	host, _ := authority.NewHostEntity(gsi.MustParseName("/O=Grid/CN=host d"), 12*time.Hour)

	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := gsitransport.NewListener(inner, gsi.ContextConfig{Credential: host, TrustStore: trust})
	defer l.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		msg, err := conn.Receive()
		if err != nil {
			done <- err
			return
		}
		done <- conn.Send(msg)
	}()
	conn, err := gsitransport.Dial(l.Addr().String(), gsi.ContextConfig{Credential: alice, TrustStore: trust})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if pong, err := conn.Receive(); err != nil || string(pong) != "ping" {
		t.Fatalf("%v %q", err, pong)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestGT2GT3CredentialCompatibility asserts the §6 claim: "GSI3 remains
// compatible (in terms of credential formats) with those used in GT2" —
// the very same proxy credential authenticates over the GT2 transport
// and the GT3 SOAP stack.
func TestGT2GT3CredentialCompatibility(t *testing.T) {
	boot, err := gsi.NewBootstrap("/O=Grid/CN=CA", "/O=Grid/CN=host compat", nil)
	if err != nil {
		t.Fatal(err)
	}
	alice, _ := boot.CA.NewEntity(gsi.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	p, err := proxy.New(alice, proxy.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// GT2: raw transport mutual auth with the proxy.
	env, err := gsi.NewEnvironment(gsi.WithTrustStore(boot.Trust))
	if err != nil {
		t.Fatal(err)
	}
	proxyClient, err := env.NewClient(p)
	if err != nil {
		t.Fatal(err)
	}
	_, actx, err := proxyClient.Establish(context.Background(),
		gsi.ContextConfig{Credential: boot.Host, TrustStore: boot.Trust})
	if err != nil {
		t.Fatalf("GT2 path: %v", err)
	}
	if !actx.Peer().Identity.Equal(alice.Identity()) {
		t.Fatalf("GT2 identity = %q", actx.Peer().Identity)
	}

	// GT3: the same credential drives the SOAP pipeline.
	client := &gsi.ServiceClient{
		Transport:  gsi.PipeTransport(boot.Stack.Container),
		Credential: p,
		TrustStore: boot.Trust,
	}
	out, err := client.InvokeSigned("security/credential-processing", "ValidateChain",
		gsi.EncodeChain(p.Chain))
	if err != nil {
		t.Fatalf("GT3 path: %v", err)
	}
	if string(out) != alice.Identity().String() {
		t.Fatalf("GT3 identity = %q", out)
	}
}

package gsi_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/gridcert"
	"repro/internal/proxy"
	"repro/internal/secsvc"
	"repro/internal/wire"
	"repro/pkg/gsi"
)

// authzBed is a full authorization-pipeline fixture: a CA, an
// Environment, a host, a VO CAS server with one enrolled member
// (Alice, group "researchers", role "operator"), an outsider (Bob),
// a local policy, and a gridmap.
type authzBed struct {
	ca      *gsi.CA
	env     *gsi.Environment
	host    *gsi.Credential
	alice   *gsi.Credential // end-entity
	aliceVO *gsi.Credential // restricted proxy with embedded assertion
	bob     *gsi.Credential
	vo      *gsi.CASServer
	local   *gsi.Policy
	gridmap *gsi.GridMap
	audit   *secsvc.AuditLog
}

func newAuthzBed(t testing.TB) *authzBed {
	t.Helper()
	authority, err := gsi.NewCA("/O=Grid/CN=CA", 96*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	env, err := gsi.NewEnvironment(gsi.WithRoots(authority.Certificate()))
	if err != nil {
		t.Fatal(err)
	}
	host, err := authority.NewHostEntity(gsi.MustParseName("/O=Grid/CN=host data"), 72*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	alice, err := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=Alice"), 72*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=Bob"), 72*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	voCred, err := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=ClimateVO CAS"), 72*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	vo := gsi.NewCASServer(voCred)
	vo.AssertionLifetime = 48 * time.Hour
	vo.AddMember(alice.Identity(), "researchers")
	vo.AssignRole(alice.Identity(), "operator")
	vo.AddPolicy(gsi.Rule{
		ID:        "vo-exchange",
		Effect:    gsi.EffectPermit,
		Groups:    []string{"researchers"},
		Resources: []string{"ogsa:gsi.exchange"},
		Actions:   []string{"read", "echo"},
	})
	aliceClient, err := env.NewClient(alice)
	if err != nil {
		t.Fatal(err)
	}
	assertion, err := aliceClient.RequestAssertion(context.Background(), vo)
	if err != nil {
		t.Fatal(err)
	}
	aliceVO, err := aliceClient.EmbedAssertion(assertion)
	if err != nil {
		t.Fatal(err)
	}
	local := gsi.NewPolicy(gsi.Rule{
		ID:        "local-exchange",
		Effect:    gsi.EffectPermit,
		Subjects:  []string{"*"},
		Resources: []string{"ogsa:gsi.exchange"},
		Actions:   []string{"*"},
	})
	gm := gsi.NewGridMap()
	gm.Add(alice.Identity(), "alice")
	return &authzBed{
		ca:  authority,
		env: env, host: host, alice: alice, aliceVO: aliceVO, bob: bob,
		vo: vo, local: local, gridmap: gm, audit: secsvc.NewAuditLog(),
	}
}

func (b *authzBed) pipeline(t testing.TB, extra ...gsi.Option) *gsi.AuthorizationPipeline {
	t.Helper()
	opts := append([]gsi.Option{
		gsi.WithLocalPolicy(b.local),
		gsi.WithTrustedVO(b.vo.Certificate()),
		gsi.WithGridMap(b.gridmap),
		gsi.WithAuditSink(b.audit),
	}, extra...)
	p, err := b.env.NewAuthorizationPipeline(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// serveEcho starts a server whose handler reports the mapped local
// account, so tests can observe Peer.LocalAccount end to end.
func (b *authzBed) serveEcho(t testing.TB, transport gsi.Transport, pl *gsi.AuthorizationPipeline) gsi.Endpoint {
	t.Helper()
	server, err := b.env.NewServer(b.host,
		gsi.WithTransport(transport),
		gsi.WithAuthorizationPipeline(pl))
	if err != nil {
		t.Fatal(err)
	}
	ep, err := server.Serve(context.Background(), "127.0.0.1:0",
		func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
			return []byte("account=" + peer.LocalAccount), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	return ep
}

func testPipelineEndToEnd(t *testing.T, transport gsi.Transport) {
	bed := newAuthzBed(t)
	pl := bed.pipeline(t)
	ep := bed.serveEcho(t, transport, pl)
	ctx := context.Background()

	// Alice, carrying her CAS assertion: VO ∩ local permits, gridmap
	// maps, and the handler sees the account.
	aliceCl, err := bed.env.NewClient(bed.aliceVO, gsi.WithTransport(transport))
	if err != nil {
		t.Fatal(err)
	}
	out, err := aliceCl.Exchange(ctx, ep.Addr(), "echo", []byte("hi"))
	if err != nil {
		t.Fatalf("assertion-carrying exchange denied: %v", err)
	}
	if string(out) != "account=alice" {
		t.Fatalf("handler saw %q, want account=alice (gridmap mapping lost)", out)
	}

	// The VO narrowed Alice to read/echo: a write op fails the VO leg
	// even though local policy alone would permit it.
	if _, err := aliceCl.Exchange(ctx, ep.Addr(), "write", nil); !errors.Is(err, gsi.ErrUnauthorized) {
		t.Fatalf("VO-narrowed op: got %v, want ErrUnauthorized", err)
	}

	// Bob has no assertion and no gridmap entry: denied despite the
	// permissive local policy (fail-closed mapping).
	bobCl, err := bed.env.NewClient(bed.bob, gsi.WithTransport(transport))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bobCl.Exchange(ctx, ep.Addr(), "echo", nil); !errors.Is(err, gsi.ErrUnauthorized) {
		t.Fatalf("unmapped peer: got %v, want ErrUnauthorized", err)
	}

	// Every decision landed in the tamper-evident audit chain.
	if bed.audit.Len() == 0 {
		t.Fatal("no audit events recorded")
	}
	if i := bed.audit.VerifyChain(); i >= 0 {
		t.Fatalf("audit chain corrupt at %d", i)
	}
	var permits, denies int
	for _, e := range bed.audit.Events() {
		switch e.Event {
		case "authz-permit":
			permits++
		case "authz-deny":
			denies++
		}
	}
	if permits == 0 || denies == 0 {
		t.Fatalf("audit trail incomplete: %d permits, %d denies", permits, denies)
	}
}

func TestPipelineEndToEndGT2(t *testing.T) { testPipelineEndToEnd(t, gsi.TransportGT2()) }
func TestPipelineEndToEndGT3(t *testing.T) { testPipelineEndToEnd(t, gsi.TransportGT3()) }

// TestPipelineMalformedAssertionDenied: a peer presenting a restricted
// proxy whose CAS policy block is garbage must be denied at the facade,
// not silently downgraded to local-only policy.
func TestPipelineMalformedAssertionDenied(t *testing.T) {
	bed := newAuthzBed(t)
	pl := bed.pipeline(t)
	ep := bed.serveEcho(t, gsi.TransportGT2(), pl)

	garbage, err := proxy.New(bed.alice, proxy.Options{
		Variant:        gridcert.ProxyRestricted,
		PolicyLanguage: cas.PolicyLanguage,
		Policy:         []byte("definitely not an assertion"),
		Lifetime:       time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := bed.env.NewClient(garbage)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exchange(context.Background(), ep.Addr(), "echo", nil); !errors.Is(err, gsi.ErrUnauthorized) {
		t.Fatalf("malformed assertion: got %v, want ErrUnauthorized", err)
	}
}

// TestPipelineClockPlumbing is the clock regression: time-bounded rules
// must be evaluated against the Environment clock (WithClock), not a
// time.Now fallback inside the engine.
func TestPipelineClockPlumbing(t *testing.T) {
	fake := time.Now().Add(48 * time.Hour)
	authority, err := gsi.NewCA("/O=Grid/CN=CA", 96*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	env, err := gsi.NewEnvironment(
		gsi.WithRoots(authority.Certificate()),
		gsi.WithClock(func() time.Time { return fake }),
	)
	if err != nil {
		t.Fatal(err)
	}
	host, _ := authority.NewHostEntity(gsi.MustParseName("/O=Grid/CN=host clock"), 72*time.Hour)
	alice, _ := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=Alice"), 72*time.Hour)

	// The rule's window brackets the fake clock only: under the real
	// clock it has not started yet, so a time.Now fallback would deny.
	local := gsi.NewPolicy(gsi.Rule{
		ID:        "window",
		Effect:    gsi.EffectPermit,
		Subjects:  []string{"*"},
		Resources: []string{"*"},
		Actions:   []string{"*"},
		NotBefore: fake.Add(-time.Hour),
		NotAfter:  fake.Add(time.Hour),
	})
	pl, err := env.NewAuthorizationPipeline(gsi.WithLocalPolicy(local))
	if err != nil {
		t.Fatal(err)
	}
	server, err := env.NewServer(host, gsi.WithAuthorizationPipeline(pl))
	if err != nil {
		t.Fatal(err)
	}
	ep, err := server.Serve(context.Background(), "127.0.0.1:0",
		func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
			return body, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	cl, err := env.NewClient(alice)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exchange(context.Background(), ep.Addr(), "op", nil); err != nil {
		t.Fatalf("rule valid at the environment clock was denied (engine fell back to time.Now): %v", err)
	}

	// The inverse: a rule whose window brackets the real clock but not
	// the fake one must deny.
	local.Remove("window")
	local.Add(gsi.Rule{
		ID:        "real-window",
		Effect:    gsi.EffectPermit,
		Subjects:  []string{"*"},
		Resources: []string{"*"},
		Actions:   []string{"*"},
		NotBefore: time.Now().Add(-time.Hour),
		NotAfter:  time.Now().Add(time.Hour),
	})
	if _, err := cl.Exchange(context.Background(), ep.Addr(), "op", nil); !errors.Is(err, gsi.ErrUnauthorized) {
		t.Fatalf("rule outside the environment clock: got %v, want ErrUnauthorized", err)
	}
}

// TestDecisionCacheHitsAndInvalidation drives the cache directly:
// repeated decisions hit, every mutation class invalidates on the very
// next authorize.
func TestDecisionCacheHitsAndInvalidation(t *testing.T) {
	bed := newAuthzBed(t)
	pl := bed.pipeline(t, gsi.WithDecisionCache(time.Minute))
	ctx := context.Background()
	peer := gsi.Peer{Identity: bed.alice.Identity(), Subject: bed.aliceVO.Leaf().Subject, Chain: bed.aliceVO.Chain}

	d1, err := pl.Authorize(ctx, peer, "ogsa:gsi.exchange", "echo")
	if err != nil || d1.Decision != gsi.Permit {
		t.Fatalf("cold authorize: %+v %v", d1, err)
	}
	if d1.Cached {
		t.Fatal("first decision claims cached")
	}
	if d1.LocalAccount != "alice" {
		t.Fatalf("account %q, want alice", d1.LocalAccount)
	}
	d2, _ := pl.Authorize(ctx, peer, "ogsa:gsi.exchange", "echo")
	if !d2.Cached || d2.Decision != gsi.Permit || d2.LocalAccount != "alice" {
		t.Fatalf("second authorize not served from cache: %+v", d2)
	}
	if st := pl.CacheStats(); st.Hits == 0 {
		t.Fatalf("no cache hits recorded: %+v", st)
	}

	// Local-policy mutation invalidates immediately.
	bed.local.Remove("local-exchange")
	d3, _ := pl.Authorize(ctx, peer, "ogsa:gsi.exchange", "echo")
	if d3.Cached {
		t.Fatal("decision served from cache across a policy mutation")
	}
	if d3.Decision != gsi.Deny {
		t.Fatalf("revoked local rule still permits: %+v", d3)
	}
	bed.local.Add(gsi.Rule{
		ID: "local-exchange", Effect: gsi.EffectPermit,
		Subjects: []string{"*"}, Resources: []string{"ogsa:gsi.exchange"}, Actions: []string{"*"},
	})

	// Gridmap mutation invalidates immediately.
	pl.Authorize(ctx, peer, "ogsa:gsi.exchange", "echo") // repopulate
	bed.gridmap.Remove(bed.alice.Identity())
	d4, _ := pl.Authorize(ctx, peer, "ogsa:gsi.exchange", "echo")
	if d4.Cached || d4.Decision != gsi.Deny {
		t.Fatalf("gridmap removal not honored on next exchange: %+v", d4)
	}
	bed.gridmap.Add(bed.alice.Identity(), "alice")

	// VO-set mutation invalidates immediately.
	pl.Authorize(ctx, peer, "ogsa:gsi.exchange", "echo")
	pl.DistrustVO(bed.vo.VO())
	d5, _ := pl.Authorize(ctx, peer, "ogsa:gsi.exchange", "echo")
	if d5.Cached || d5.Decision != gsi.Deny {
		t.Fatalf("distrusted VO still honored: %+v", d5)
	}
	pl.TrustVO(bed.vo.Certificate())
	d6, _ := pl.Authorize(ctx, peer, "ogsa:gsi.exchange", "echo")
	if d6.Decision != gsi.Permit {
		t.Fatalf("re-trusted VO denied: %+v", d6)
	}
}

// TestDecisionCacheDisabled: WithDecisionCache(0) evaluates every time.
func TestDecisionCacheDisabled(t *testing.T) {
	bed := newAuthzBed(t)
	pl := bed.pipeline(t, gsi.WithDecisionCache(0))
	ctx := context.Background()
	peer := gsi.Peer{Identity: bed.alice.Identity(), Chain: bed.aliceVO.Chain}
	for i := 0; i < 3; i++ {
		d, err := pl.Authorize(ctx, peer, "ogsa:gsi.exchange", "echo")
		if err != nil || d.Decision != gsi.Permit || d.Cached {
			t.Fatalf("iteration %d: %+v %v", i, d, err)
		}
	}
	if st := pl.CacheStats(); st.Hits != 0 || st.Len != 0 {
		t.Fatalf("disabled cache has state: %+v", st)
	}
}

// TestPipelineRevocationBitesLiveConnection: a CRL installed after the
// handshake must deny the peer's very next exchange on the same
// session — the pipeline re-validates through the generation-aware
// verify cache instead of trusting handshake-time ChainInfo forever.
func TestPipelineRevocationBitesLiveConnection(t *testing.T) {
	authority, err := gsi.NewCA("/O=Grid/CN=CA", 96*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	env, err := gsi.NewEnvironment(gsi.WithRoots(authority.Certificate()))
	if err != nil {
		t.Fatal(err)
	}
	host, _ := authority.NewHostEntity(gsi.MustParseName("/O=Grid/CN=host crl"), 72*time.Hour)
	alice, _ := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=Alice"), 72*time.Hour)
	local := gsi.NewPolicy(gsi.Rule{
		ID: "allow", Effect: gsi.EffectPermit,
		Subjects: []string{"*"}, Resources: []string{"*"}, Actions: []string{"*"},
	})
	pl, err := env.NewAuthorizationPipeline(
		gsi.WithLocalPolicy(local), gsi.WithDecisionCache(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	server, err := env.NewServer(host, gsi.WithAuthorizationPipeline(pl))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ep, err := server.Serve(ctx, "127.0.0.1:0",
		func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
			return body, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	cl, err := env.NewClient(alice)
	if err != nil {
		t.Fatal(err)
	}
	// One long-lived session: handshake once, exchange across the
	// revocation without reconnecting.
	sess, err := cl.Connect(ctx, ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Exchange(ctx, "op", nil); err != nil {
		t.Fatalf("pre-revocation exchange: %v", err)
	}
	if err := authority.Revoke(alice.Leaf().SerialNumber); err != nil {
		t.Fatal(err)
	}
	crl, err := authority.CRL()
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Trust().AddCRL(crl); err != nil {
		t.Fatal(err)
	}
	// The refusal is an authentication failure (the chain no longer
	// validates), not a policy deny, so it crosses the wire as a
	// generic server error carrying the revocation cause.
	if _, err := sess.Exchange(ctx, "op", nil); err == nil {
		t.Fatal("revoked credential still served on live session")
	} else if !strings.Contains(err.Error(), "revoked") {
		t.Fatalf("post-CRL exchange failed for the wrong reason: %v", err)
	}
}

// TestServePerCallPipelineOptions: pipeline options given per Serve
// call must take effect (an endpoint-private pipeline is rebuilt from
// the merged settings) instead of being silently dropped in favor of
// the handle's pipeline.
func TestServePerCallPipelineOptions(t *testing.T) {
	bed := newAuthzBed(t)
	server, err := bed.env.NewServer(bed.host,
		gsi.WithLocalPolicy(bed.local),
		gsi.WithTrustedVO(bed.vo.Certificate()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	handler := func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
		return []byte(peer.LocalAccount), nil
	}
	// Endpoint 1: the handle's pipeline — no gridmap, so no account.
	ep1, err := server.Serve(ctx, "127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}
	defer ep1.Close()
	// Endpoint 2: per-call gridmap — mapping must be enforced here.
	ep2, err := server.Serve(ctx, "127.0.0.1:0", handler, gsi.WithGridMap(bed.gridmap))
	if err != nil {
		t.Fatal(err)
	}
	defer ep2.Close()

	aliceCl, err := bed.env.NewClient(bed.aliceVO)
	if err != nil {
		t.Fatal(err)
	}
	out, err := aliceCl.Exchange(ctx, ep1.Addr(), "echo", nil)
	if err != nil || string(out) != "" {
		t.Fatalf("gridmap-free endpoint: %q %v", out, err)
	}
	out, err = aliceCl.Exchange(ctx, ep2.Addr(), "echo", nil)
	if err != nil || string(out) != "alice" {
		t.Fatalf("per-call WithGridMap dropped: %q %v", out, err)
	}
	// And fail-closed: Bob is unmapped on endpoint 2 but fine on 1 —
	// except local policy there still requires... local permits any
	// subject, no assertion required, so endpoint 1 permits Bob.
	bobCl, err := bed.env.NewClient(bed.bob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bobCl.Exchange(ctx, ep1.Addr(), "echo", nil); err != nil {
		t.Fatalf("endpoint 1 denied Bob: %v", err)
	}
	if _, err := bobCl.Exchange(ctx, ep2.Addr(), "echo", nil); !errors.Is(err, gsi.ErrUnauthorized) {
		t.Fatalf("endpoint 2 permitted unmapped Bob: %v", err)
	}
}

// TestServeRefusesTuningPrebuiltPipeline: a prebuilt pipeline's policy
// lives inside the pipeline object, so per-call assembly options cannot
// be merged into it — Serve must error loudly rather than silently
// rebuild an empty deny-all pipeline.
func TestServeRefusesTuningPrebuiltPipeline(t *testing.T) {
	bed := newAuthzBed(t)
	pl := bed.pipeline(t)
	server, err := bed.env.NewServer(bed.host, gsi.WithAuthorizationPipeline(pl))
	if err != nil {
		t.Fatal(err)
	}
	handler := func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
		return body, nil
	}
	if _, err := server.Serve(context.Background(), "127.0.0.1:0", handler,
		gsi.WithDecisionCache(5*time.Second)); err == nil {
		t.Fatal("Serve accepted per-call assembly options on a prebuilt pipeline")
	}
	// The same combination at NewServer time must refuse identically,
	// not silently drop the assembly option.
	if _, err := bed.env.NewServer(bed.host,
		gsi.WithAuthorizationPipeline(pl), gsi.WithGridMap(bed.gridmap)); err == nil {
		t.Fatal("NewServer accepted assembly options alongside a prebuilt pipeline")
	}
	// Replacing the pipeline per-call is fine.
	ep, err := server.Serve(context.Background(), "127.0.0.1:0", handler,
		gsi.WithAuthorizationPipeline(bed.pipeline(t, gsi.WithDecisionCache(5*time.Second))))
	if err != nil {
		t.Fatal(err)
	}
	ep.Close()
}

// TestTuningOptionsAloneDoNotEnforce: WithAuditSink/WithDecisionCache
// are observability/tuning, not enforcement — on their own they must
// not assemble a policy-less (deny-everything) pipeline.
func TestTuningOptionsAloneDoNotEnforce(t *testing.T) {
	bed := newAuthzBed(t)
	server, err := bed.env.NewServer(bed.host,
		gsi.WithAuditSink(bed.audit), gsi.WithDecisionCache(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ep, err := server.Serve(context.Background(), "127.0.0.1:0",
		func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
			return body, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	cl, err := bed.env.NewClient(bed.alice)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exchange(context.Background(), ep.Addr(), "echo", nil); err != nil {
		t.Fatalf("tuning-only options turned the server deny-all: %v", err)
	}
}

// TestPipelineAnonymousDenied: anonymous peers never pass the pipeline.
func TestPipelineAnonymousDenied(t *testing.T) {
	bed := newAuthzBed(t)
	pl := bed.pipeline(t)
	d, err := pl.Authorize(context.Background(), gsi.Peer{Anonymous: true}, "r", "a")
	if err != nil {
		t.Fatal(err)
	}
	if d.Decision != gsi.Deny {
		t.Fatalf("anonymous peer: %+v", d)
	}
}

// TestEnforcerAndPipelineDecideAlike is the differential pin on Figure 2
// step 3: one table of chains goes through the chain-in CAS enforcer and
// through an uncached, gridmap-free pipeline, and both must reach the
// same decision, components and identity. The pipeline may append the
// assertion-check detail to the reason; nothing else may differ.
func TestEnforcerAndPipelineDecideAlike(t *testing.T) {
	bed := newAuthzBed(t)
	now := time.Now()

	// A second community whose signing key the test holds, so it can
	// sign what a CAS server never would: an expired assertion and a
	// zero-effect rule. Both enforcer and pipeline trust it.
	signerCred, err := bed.ca.NewEntity(gsi.MustParseName("/O=Grid/CN=SignerVO CAS"), 72*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	signer := gsi.NewCASServer(signerCred)
	signer.AddMember(bed.alice.Identity(), "researchers")
	sign := func(a *gsi.CASAssertion) *gsi.CASAssertion {
		tbs := wire.NewDecoder(a.Encode()).Bytes()
		sig, err := signerCred.Key.Sign(tbs)
		if err != nil {
			t.Fatal(err)
		}
		a.Signature = sig
		return a
	}
	// Restricted proxies are built directly so the CAS block can be
	// anything at all, including another subject's assertion.
	restricted := func(blob []byte) []*gsi.Certificate {
		cred, err := proxy.New(bed.alice, proxy.Options{
			Variant:        gridcert.ProxyRestricted,
			PolicyLanguage: cas.PolicyLanguage,
			Policy:         blob,
			Lifetime:       time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cred.Chain
	}
	issue := func(vo *gsi.CASServer, who gsi.Name) *gsi.CASAssertion {
		a, err := vo.IssueAssertion(who)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}

	rogueCred, err := bed.ca.NewEntity(gsi.MustParseName("/O=Grid/CN=RogueVO CAS"), 72*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	rogue := gsi.NewCASServer(rogueCred)
	rogue.AddMember(bed.alice.Identity(), "researchers")

	signer.SetClock(func() time.Time { return now.Add(-10 * time.Hour) })
	signer.AssertionLifetime = time.Hour
	expired := issue(signer, bed.alice.Identity())

	bed.vo.AddMember(bed.bob.Identity(), "researchers")
	forBob := issue(bed.vo, bed.bob.Identity())

	zeroEffect := sign(&gsi.CASAssertion{
		VO:      signer.VO(),
		Subject: bed.alice.Identity(),
		Rules: []gsi.Rule{{
			ID:        "zero-effect",
			Subjects:  []string{bed.alice.Identity().String()},
			Resources: []string{"ogsa:gsi.exchange"},
			Actions:   []string{"read"},
		}},
		IssuedAt:  now,
		ExpiresAt: now.Add(time.Hour),
	})

	localDeny := gsi.NewPolicy(gsi.Rule{
		ID:        "local-deny-alice",
		Effect:    gsi.EffectDeny,
		Subjects:  []string{bed.alice.Identity().String()},
		Resources: []string{"ogsa:gsi.exchange"},
		Actions:   []string{"*"},
	})
	groupGate := gsi.NewPolicy(gsi.Rule{
		ID:        "group-gate",
		Effect:    gsi.EffectPermit,
		Groups:    []string{"researchers"},
		Resources: []string{"ogsa:gsi.exchange"},
		Actions:   []string{"*"},
	})

	rows := []struct {
		name    string
		chain   []*gsi.Certificate
		action  string
		local   *gsi.Policy
		noLocal bool
		want    gsi.Decision
		reason  string // prefix of the enforcer's reason
	}{
		{name: "no assertion", chain: bed.alice.Chain,
			want: gsi.Permit, reason: "permitted by local policy alone"},
		{name: "assertion permitted by both", chain: bed.aliceVO.Chain,
			want: gsi.Permit, reason: "permitted by local ∩ VO policy"},
		{name: "assertion denied by local", chain: bed.aliceVO.Chain, local: localDeny,
			want: gsi.Deny, reason: "intersection of local (deny) and VO (permit)"},
		{name: "assertion denied by VO", chain: bed.aliceVO.Chain, action: "write",
			want: gsi.Deny, reason: "intersection of local (permit) and VO (not-applicable)"},
		{name: "malformed CAS block", chain: restricted([]byte("not an assertion")),
			want: gsi.Deny, reason: "CAS assertion present but invalid"},
		{name: "untrusted VO", chain: restricted(issue(rogue, bed.alice.Identity()).Encode()),
			want: gsi.Deny, reason: "assertion from untrusted VO"},
		{name: "expired assertion", chain: restricted(expired.Encode()),
			want: gsi.Deny, reason: "assertion verification failed"},
		{name: "subject mismatch", chain: restricted(forBob.Encode()),
			want: gsi.Deny, reason: "assertion subject does not match"},
		{name: "zero-effect VO rule", chain: restricted(zeroEffect.Encode()),
			want: gsi.Deny, reason: "assertion carries a rule with an invalid effect"},
		{name: "group-gated local rule", chain: bed.aliceVO.Chain, local: groupGate,
			want: gsi.Permit, reason: "permitted by local ∩ VO policy"},
		{name: "group-gated local rule without assertion", chain: bed.alice.Chain, local: groupGate,
			want: gsi.Deny, reason: "no CAS assertion and local policy does not permit"},
		{name: "nil local policy", chain: bed.aliceVO.Chain, noLocal: true,
			want: gsi.Deny, reason: "intersection of local (not-applicable) and VO (permit)"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			local := bed.local
			if row.local != nil {
				local = row.local
			}
			opts := []gsi.Option{
				gsi.WithTrustedVO(bed.vo.Certificate(), signer.Certificate()),
				gsi.WithDecisionCache(0),
			}
			if row.noLocal {
				local = nil
			} else {
				opts = append(opts, gsi.WithLocalPolicy(local))
			}
			action := row.action
			if action == "" {
				action = "read"
			}

			enf := gsi.NewCASEnforcer(bed.env.Trust(), local)
			enf.TrustVO(bed.vo.Certificate(), signer.Certificate())
			want, _ := enf.Authorize(row.chain, "ogsa:gsi.exchange", action, time.Now())

			pl, err := bed.env.NewAuthorizationPipeline(opts...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := pl.Authorize(context.Background(), gsi.Peer{Chain: row.chain}, "ogsa:gsi.exchange", action)
			if err != nil {
				t.Fatalf("pipeline: %v", err)
			}

			if want.Decision != row.want || !strings.HasPrefix(want.Reason, row.reason) {
				t.Fatalf("enforcer decided %s (%s), want %s (%s…)", want.Decision, want.Reason, row.want, row.reason)
			}
			if got.Decision != want.Decision || got.Local != want.Local || got.VO != want.VO ||
				!got.Identity.Equal(want.Identity) || !got.VOName.Equal(want.VOName) {
				t.Fatalf("pipeline %+v\nenforcer %+v", got, want)
			}
			if !strings.HasPrefix(got.Reason, want.Reason) {
				t.Fatalf("pipeline reason %q does not extend enforcer reason %q", got.Reason, want.Reason)
			}
		})
	}
}

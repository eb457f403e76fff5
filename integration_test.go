// Cross-module integration scenarios: each test wires several subsystems
// together the way a deployment would, asserting the end-to-end security
// properties the paper claims.
package repro

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/authz"
	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/gram"
	"repro/internal/gridcert"
	"repro/internal/gridftp"
	"repro/internal/mds"
	"repro/internal/myproxy"
	"repro/internal/ogsa"
	"repro/internal/proxy"
	"repro/internal/soap"
	"repro/internal/vo"
	"repro/internal/xmlsec"
	"repro/pkg/gsi"
)

// TestIntegrationMyProxyToGRAM: a portal retrieves a user's delegated
// credential from the repository and submits a job with it — the classic
// MyProxy + GRAM workflow.
func TestIntegrationMyProxyToGRAM(t *testing.T) {
	f := newFixture(t)

	// Alice deposits a week-long proxy with the repository.
	repo := myproxy.NewServer()
	deposit, err := proxy.New(f.alice, proxy.Options{Lifetime: 12 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Store("alice", "portal-pass", deposit, 2*time.Hour); err != nil {
		t.Fatal(err)
	}

	// The portal (a different machine: it has no copy of Alice's keys)
	// retrieves a short-lived proxy.
	delegatee, req, err := proxy.NewDelegatee(time.Hour, false)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := repo.Retrieve("alice", "portal-pass", req)
	if err != nil {
		t.Fatal(err)
	}
	portalCred, err := delegatee.Accept(reply)
	if err != nil {
		t.Fatal(err)
	}

	// The portal submits a job on Alice's behalf.
	gm := authz.NewGridMap()
	gm.Add(f.alice.Identity(), "alice")
	res, err := gram.NewResource(f.host, f.trust, gm)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CreateAccount("alice"); err != nil {
		t.Fatal(err)
	}
	client := &gram.Client{Credential: portalCred, Trust: f.trust, Resource: res}
	mjs, err := client.SubmitAndRun(gram.JobDescription{
		Executable:         gram.JobProgram,
		DelegateCredential: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mjs.Job().State() != gram.StateDone {
		t.Fatalf("job state = %s", mjs.Job().State())
	}
	// The job's delegated credential still resolves to Alice even though
	// it came through repository + portal (chain depth 3).
	if !mjs.DelegatedCredential().Identity().Equal(f.alice.Identity()) {
		t.Fatalf("delegated identity = %q", mjs.DelegatedCredential().Identity())
	}
}

// TestIntegrationCASRestrictedProxyCannotSubmitJobs: a CAS restricted
// proxy carries reduced rights; combined with VO policy a resource can
// allow data reads while GRAM still accepts only the identity it maps.
func TestIntegrationCASGovernedSharing(t *testing.T) {
	f := newFixture(t)
	voCred, err := f.auth.NewEntity(gridcert.MustParseName("/O=Grid/CN=VO"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	server := cas.NewServer(voCred)
	server.AddMember(f.alice.Identity(), "researchers")
	server.AddPolicy(authz.Rule{
		Effect:    authz.EffectPermit,
		Groups:    []string{"researchers"},
		Resources: []string{"data:/shared/*"},
		Actions:   []string{"read"},
	})
	assertion, err := server.IssueAssertion(f.alice.Identity())
	if err != nil {
		t.Fatal(err)
	}
	cred, err := cas.EmbedInProxy(f.alice, assertion)
	if err != nil {
		t.Fatal(err)
	}

	local := authz.NewPolicy(authz.DenyOverrides).Add(authz.Rule{
		Effect:    authz.EffectPermit,
		Subjects:  []string{"*"},
		Resources: []string{"data:/*"},
		Actions:   []string{"read", "write", "delete"},
	})
	enforcer := cas.NewEnforcer(f.trust, local)
	enforcer.TrustVO(server.Certificate())

	res, err := enforcer.Authorize(cred.Chain, "data:/shared/set1", "read", time.Time{})
	if err != nil || res.Decision != authz.Permit {
		t.Fatalf("read: %v %+v", err, res)
	}
	res, _ = enforcer.Authorize(cred.Chain, "data:/shared/set1", "delete", time.Time{})
	if res.Decision != authz.Deny {
		t.Fatalf("delete: %+v", res)
	}
}

// TestIntegrationSignedEnvelopeThroughRelays: WS-Routing future work —
// message-level security survives application-level intermediaries, and
// tampering at a hop is detected at the destination.
func TestIntegrationSignedEnvelopeThroughRelays(t *testing.T) {
	f := newFixture(t)

	var received *soap.Envelope
	destination := func(env *soap.Envelope) (*soap.Envelope, error) {
		received = env
		return env.Reply([]byte("delivered")), nil
	}
	interior := soap.NewRelay()
	interior.Route("gsh://cluster/", destination)
	edge := soap.NewRelay()
	edge.Route("gsh://", interior.Handler())

	env := soap.NewEnvelope("app/op", []byte("payload"))
	env.To = "gsh://cluster/svc"
	if err := xmlsec.SignEnvelope(env, f.alice); err != nil {
		t.Fatal(err)
	}
	if _, err := edge.Forward(env); err != nil {
		t.Fatal(err)
	}
	// The destination verifies the end-to-end signature despite two hops
	// having modified (uncovered) routing headers.
	info, err := xmlsec.VerifyEnvelope(received, xmlsec.VerifyOptions{TrustStore: f.trust})
	if err != nil {
		t.Fatalf("signature did not survive relaying: %v", err)
	}
	if !info.Identity.Equal(f.alice.Identity()) {
		t.Fatalf("signer = %q", info.Identity)
	}

	// A malicious relay rewriting the body is caught.
	evil := soap.NewRelay()
	evil.Route("gsh://", func(e *soap.Envelope) (*soap.Envelope, error) {
		e.Body = []byte("altered")
		return destination(e)
	})
	env2 := soap.NewEnvelope("app/op", []byte("payload"))
	env2.To = "gsh://cluster/svc"
	if err := xmlsec.SignEnvelope(env2, f.alice); err != nil {
		t.Fatal(err)
	}
	if _, err := evil.Forward(env2); err != nil {
		t.Fatal(err)
	}
	if _, err := xmlsec.VerifyEnvelope(received, xmlsec.VerifyOptions{TrustStore: f.trust}); err == nil {
		t.Fatal("tampering at a relay went undetected")
	}
}

// TestIntegrationVOWideJobSubmission: two domains form a VO; a user from
// one domain submits a job at the other domain's GRAM resource. This is
// the paper's headline scenario end to end.
func TestIntegrationVOWideJobSubmission(t *testing.T) {
	orgA, err := vo.NewDomain("OrgA")
	if err != nil {
		t.Fatal(err)
	}
	orgB, err := vo.NewDomain("OrgB")
	if err != nil {
		t.Fatal(err)
	}
	v := vo.New("joint")
	if _, err := v.JoinGSI(orgA, orgB); err != nil {
		t.Fatal(err)
	}
	alice, err := orgA.NewUser("Alice")
	if err != nil {
		t.Fatal(err)
	}
	hostB, err := orgB.CA.NewHostEntity(gridcert.MustParseName("/O=OrgB/CN=host cluster-b"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	gm := authz.NewGridMap()
	gm.Add(alice.Identity(), "visitor_alice")
	// The resource validates with OrgB's trust store, which now includes
	// OrgA's CA thanks to the VO join.
	res, err := gram.NewResource(hostB, orgB.Trust, gm)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CreateAccount("visitor_alice"); err != nil {
		t.Fatal(err)
	}
	p, err := proxy.New(alice, proxy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	client := &gram.Client{Credential: p, Trust: orgA.Trust, Resource: res}
	mjs, err := client.SubmitAndRun(gram.JobDescription{Executable: gram.JobProgram, DelegateCredential: true})
	if err != nil {
		t.Fatalf("cross-domain job: %v", err)
	}
	if mjs.Job().State() != gram.StateDone {
		t.Fatalf("state = %s", mjs.Job().State())
	}
	if mjs.Job().Account != "visitor_alice" {
		t.Fatalf("account = %q", mjs.Job().Account)
	}
}

// TestIntegrationFullStackWithSecurityServices: the Figure-3 pipeline
// against a stack whose authorization and audit are themselves OGSA
// services, over the HTTP binding.
func TestIntegrationFullStackHTTP(t *testing.T) {
	pol := authz.NewPolicy(authz.DenyOverrides).Add(authz.Rule{
		Effect:    authz.EffectPermit,
		Subjects:  []string{"/O=Grid/CN=Alice"},
		Resources: []string{"ogsa:*"},
		Actions:   []string{"*"},
	})
	boot, err := core.NewBootstrap("/O=Grid/CN=CA", "/O=Grid/CN=host full",
		&authz.PolicyEngine{Policy: pol, DefaultDeny: true})
	if err != nil {
		t.Fatal(err)
	}
	boot.Stack.Container.Publish("app", newBenchService())
	srv, err := soap.NewServer("127.0.0.1:0", boot.Stack.Container.Dispatcher())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	alice, err := boot.CA.NewEntity(gridcert.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	env, err := gsi.NewEnvironment(gsi.WithTrustStore(boot.Trust))
	if err != nil {
		t.Fatal(err)
	}
	requestor, err := env.NewClient(alice)
	if err != nil {
		t.Fatal(err)
	}
	out, trace, err := requestor.Invoke(context.Background(), srv.URL(), "app", "echo", []byte("over the wire"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "over the wire" {
		t.Fatalf("out = %q", out)
	}
	if trace.Mechanism == "" || trace.Total() <= 0 {
		t.Fatalf("trace = %+v", trace)
	}
	// The audit log is intact and saw the traffic.
	httpClient := &soap.Client{Endpoint: srv.URL()}
	client := &ogsa.Client{Transport: httpClient.Call, Credential: alice, TrustStore: boot.Trust}
	verify, err := client.InvokeSigned("security/audit", "Verify", nil)
	if err != nil || string(verify) != "intact" {
		t.Fatalf("audit: %q %v", verify, err)
	}
	events, err := client.InvokeSigned("security/audit", "Query", []byte("invoke"))
	if err != nil || !strings.Contains(string(events), "app/echo") {
		t.Fatalf("audit query: %v %q", err, events)
	}
}

// TestIntegrationDiscoveryToInvocation: services register themselves in
// MDS; a client discovers a GRAM endpoint by type and submits a job to
// it — the "dynamic creation of services ... securely coordinated"
// loop of §2.
func TestIntegrationDiscoveryToInvocation(t *testing.T) {
	f := newFixture(t)

	// A secured MDS container.
	mdsHost, err := f.auth.NewHostEntity(gridcert.MustParseName("/O=Grid/CN=host mds"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	container, err := ogsa.NewContainer(ogsa.ContainerConfig{
		Name: "mds", Credential: mdsHost, TrustStore: f.trust,
	})
	if err != nil {
		t.Fatal(err)
	}
	index := mds.NewIndex()
	container.Publish("mds", mds.NewService(index))
	transport := soap.Pipe(container.Dispatcher())

	// The GRAM resource registers itself (authenticated as its host).
	gm := authz.NewGridMap()
	gm.Add(f.alice.Identity(), "alice")
	res, err := gram.NewResource(f.host, f.trust, gm)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CreateAccount("alice"); err != nil {
		t.Fatal(err)
	}
	hostClient := &ogsa.Client{Transport: transport, Credential: f.host, TrustStore: f.trust}
	reg := mds.RegisterRequest{
		Handle:     "gram://" + res.HostIdentity().CommonName(),
		Type:       "gram.mmjfs",
		Attributes: map[string]string{"queue": "batch"},
	}
	if _, err := hostClient.InvokeSigned("mds", "Register", reg.Encode()); err != nil {
		t.Fatal(err)
	}

	// Alice discovers a GRAM service…
	aliceProxy, err := proxy.New(f.alice, proxy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	aliceClient := &ogsa.Client{Transport: transport, Credential: aliceProxy, TrustStore: f.trust}
	found, err := aliceClient.InvokeSigned("mds", "Find", []byte("gram.*"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(found), "gram://cluster") && !strings.Contains(string(found), "gram://") {
		t.Fatalf("discovery result = %q", found)
	}
	// …and submits a job to the discovered resource.
	client := &gram.Client{Credential: aliceProxy, Trust: f.trust, Resource: res}
	mjs, err := client.SubmitAndRun(gram.JobDescription{Executable: gram.JobProgram, DelegateCredential: true})
	if err != nil {
		t.Fatal(err)
	}
	if mjs.Job().State() != gram.StateDone {
		t.Fatalf("state = %s", mjs.Job().State())
	}
}

// TestIntegrationGridFTPWithCASPolicy: a GridFTP store governed by the
// same policy engine CAS uses, accessed with a proxy credential over the
// GT2 secured transport.
func TestIntegrationGridFTPThirdParty(t *testing.T) {
	f := newFixture(t)
	srcHost, err := f.auth.NewHostEntity(gridcert.MustParseName("/O=Grid/CN=host ftp-src"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	dstHost, err := f.auth.NewHostEntity(gridcert.MustParseName("/O=Grid/CN=host ftp-dst"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	pol := authz.NewPolicy(authz.DenyOverrides).Add(authz.Rule{
		Effect:   authz.EffectPermit,
		Subjects: []string{f.alice.Identity().String()},
		Actions:  []string{"read", "write", "delete", "list"},
	})
	srcStore, dstStore := gridftp.NewStore(pol), gridftp.NewStore(pol)
	src, err := gridftp.NewServer("127.0.0.1:0", srcStore, srcHost, f.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := gridftp.NewServer("127.0.0.1:0", dstStore, dstHost, f.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if err := srcStore.Put(f.alice.Identity(), "/exp/data", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// Alice uses a proxy — single sign-on end to end.
	aliceProxy, err := proxy.New(f.alice, proxy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := gridftp.ThirdPartyTransfer(aliceProxy, f.trust,
		src.Addr(), src.Identity(), dst.Addr(), dst.Identity(),
		"/exp/data", "/mirror/data", 0); err != nil {
		t.Fatal(err)
	}
	got, err := dstStore.Get(f.alice.Identity(), "/mirror/data")
	if err != nil || string(got) != "payload" {
		t.Fatalf("%v %q", err, got)
	}
}

// TestIntegrationMJSMonitoredThroughContainer: the MJS created by GRAM is
// itself a Grid service; publishing it in a hosting environment lets
// clients monitor the job with standard signed SOAP calls (GetState /
// FindServiceData), with the container enforcing authentication.
func TestIntegrationMJSMonitoredThroughContainer(t *testing.T) {
	f := newFixture(t)
	gm := authz.NewGridMap()
	gm.Add(f.alice.Identity(), "alice")
	res, err := gram.NewResource(f.host, f.trust, gm)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CreateAccount("alice"); err != nil {
		t.Fatal(err)
	}
	aliceProxy, err := proxy.New(f.alice, proxy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	client := &gram.Client{Credential: aliceProxy, Trust: f.trust, Resource: res}
	h, err := client.Submit(gram.JobDescription{Executable: gram.JobProgram})
	if err != nil {
		t.Fatal(err)
	}
	mjs, _ := res.LookupMJS(h.MJSHandle)

	// Publish the MJS in a container bound to the host credential.
	container, err := ogsa.NewContainer(ogsa.ContainerConfig{
		Name: "gram-host", Credential: f.host, TrustStore: f.trust,
	})
	if err != nil {
		t.Fatal(err)
	}
	container.Publish("mjs/1", mjs)
	transport := soap.Pipe(container.Dispatcher())
	soapClient := &ogsa.Client{Transport: transport, Credential: aliceProxy, TrustStore: f.trust}

	state, err := soapClient.InvokeSigned("mjs/1", "GetState", nil)
	if err != nil || string(state) != "Unsubmitted" {
		t.Fatalf("GetState: %q %v", state, err)
	}
	if _, err := client.Run(h); err != nil {
		t.Fatal(err)
	}
	state, err = soapClient.InvokeSigned("mjs/1", "GetState", nil)
	if err != nil || string(state) != "Done" {
		t.Fatalf("GetState after run: %q %v", state, err)
	}
	// The jobState SDE is queryable through the standard port type.
	sde, err := soapClient.InvokeSigned("mjs/1", "FindServiceData", []byte("jobState"))
	if err != nil || string(sde) != "Done" {
		t.Fatalf("FindServiceData: %q %v", sde, err)
	}
	// Unsigned monitoring is rejected by the container.
	if _, err := container.Dispatcher().Dispatch(soap.NewEnvelope("ogsa/mjs/1/GetState", nil)); err == nil {
		t.Fatal("unsigned monitoring accepted")
	}
}

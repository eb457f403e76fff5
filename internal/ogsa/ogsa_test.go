package ogsa

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/authz"
	"repro/internal/ca"
	"repro/internal/gridcert"
	"repro/internal/proxy"
	"repro/internal/soap"
	"repro/internal/wssec"
)

// echoService is a minimal Grid service for tests.
type echoService struct {
	*Base
}

func newEchoService() *echoService {
	s := &echoService{Base: NewBase()}
	s.Data.Set("status", []byte("idle"))
	return s
}

func (s *echoService) Invoke(call *Call) ([]byte, error) {
	if reply, handled, err := s.HandleStandardOp(call); handled {
		return reply, err
	}
	switch call.Op {
	case "echo":
		return append([]byte(call.Caller.Name.String()+":"), call.Body...), nil
	default:
		return nil, fmt.Errorf("unknown op %q", call.Op)
	}
}

type memAudit struct {
	mu     sync.Mutex
	events []string
}

func (a *memAudit) Record(event, subject, detail string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events = append(a.events, event+" "+subject+" "+detail)
}

func (a *memAudit) contains(substr string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, e := range a.events {
		if strings.Contains(e, substr) {
			return true
		}
	}
	return false
}

type bed struct {
	auth      *ca.Authority
	ts        *gridcert.TrustStore
	alice     *gridcert.Credential
	host      *gridcert.Credential
	container *Container
	client    *Client
	audit     *memAudit
}

func newBed(t testing.TB, authorizer authz.Engine) *bed {
	t.Helper()
	auth, err := ca.New(gridcert.MustParseName("/O=Grid/CN=CA"), 24*time.Hour, ca.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	ts := gridcert.NewTrustStore()
	if err := ts.AddRoot(auth.Certificate()); err != nil {
		t.Fatal(err)
	}
	alice, err := auth.NewEntity(gridcert.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	host, err := auth.NewHostEntity(gridcert.MustParseName("/O=Grid/CN=host c1"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	audit := &memAudit{}
	container, err := NewContainer(ContainerConfig{
		Name:       "c1",
		Credential: host,
		TrustStore: ts,
		Authorizer: authorizer,
		Audit:      audit,
	})
	if err != nil {
		t.Fatal(err)
	}
	client := &Client{
		Transport:  soap.Pipe(container.Dispatcher()),
		Credential: alice,
		TrustStore: ts,
	}
	return &bed{auth: auth, ts: ts, alice: alice, host: host, container: container, client: client, audit: audit}
}

func TestSignedInvocation(t *testing.T) {
	b := newBed(t, nil)
	b.container.Publish("echo", newEchoService())
	reply, err := b.client.InvokeSigned("echo", "echo", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "/O=Grid/CN=Alice:hi" {
		t.Fatalf("reply = %q", reply)
	}
	if !b.audit.contains("invoke /O=Grid/CN=Alice echo/echo") {
		t.Fatalf("audit missing invoke event: %v", b.audit.events)
	}
}

func TestSecureConversationInvocation(t *testing.T) {
	b := newBed(t, nil)
	b.container.Publish("echo", newEchoService())
	reply, err := b.client.InvokeSecure("echo", "echo", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "/O=Grid/CN=Alice:hi" {
		t.Fatalf("reply = %q", reply)
	}
	// Second call reuses the conversation.
	if _, err := b.client.InvokeSecure("echo", "echo", []byte("again")); err != nil {
		t.Fatal(err)
	}
	if got := b.container.ConversationManager().Sessions(); got != 1 {
		t.Fatalf("sessions = %d, want 1 (reused)", got)
	}
}

func TestUnsignedInvocationRejected(t *testing.T) {
	b := newBed(t, nil)
	b.container.Publish("echo", newEchoService())
	env := soap.NewEnvelope("ogsa/echo/echo", []byte("x"))
	if _, err := b.container.Dispatcher().Dispatch(env); err == nil {
		t.Fatal("unsigned call accepted")
	}
	if !b.audit.contains("auth-fail") {
		t.Fatal("auth failure not audited")
	}
}

func TestAuthorizationPipeline(t *testing.T) {
	pol := authz.NewPolicy(authz.DenyOverrides).Add(authz.Rule{
		Effect:    authz.EffectPermit,
		Subjects:  []string{"/O=Grid/CN=Alice"},
		Resources: []string{"ogsa:echo"},
		Actions:   []string{"echo", "FindServiceData"},
	})
	b := newBed(t, &authz.PolicyEngine{Policy: pol, DefaultDeny: true})
	b.container.Publish("echo", newEchoService())

	if _, err := b.client.InvokeSigned("echo", "echo", []byte("x")); err != nil {
		t.Fatalf("permitted op denied: %v", err)
	}
	// Unlisted op denied.
	if _, err := b.client.InvokeSigned("echo", "Destroy", nil); err == nil {
		t.Fatal("unpermitted op allowed")
	}
	if !b.audit.contains("authz-deny") {
		t.Fatal("denial not audited")
	}
}

func TestFactoryCreateService(t *testing.T) {
	b := newBed(t, nil)
	var created int
	b.container.PublishFactory("jobs", FactoryFunc(func(caller Identity, params []byte) (string, Service, error) {
		created++
		handle := fmt.Sprintf("jobs/instance-%d", created)
		svc := newEchoService()
		svc.Data.Set("owner", []byte(caller.Name.String()))
		return handle, svc, nil
	}))
	handle, err := b.client.InvokeSigned("jobs", "CreateService", []byte("params"))
	if err != nil {
		t.Fatal(err)
	}
	if string(handle) != "jobs/instance-1" {
		t.Fatalf("handle = %q", handle)
	}
	// The new instance is invocable and knows its creator.
	owner, err := b.client.InvokeSigned(string(handle), "FindServiceData", []byte("owner"))
	if err != nil {
		t.Fatal(err)
	}
	if string(owner) != "/O=Grid/CN=Alice" {
		t.Fatalf("owner = %q", owner)
	}
	if !b.audit.contains("create-service") {
		t.Fatal("creation not audited")
	}
}

func TestServiceDataQuerySubscribe(t *testing.T) {
	sd := NewServiceData()
	ch := sd.Subscribe("jobState")
	sd.Set("jobState", []byte("Active"))
	select {
	case ev := <-ch:
		if ev.Name != "jobState" || string(ev.Value) != "Active" {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("no notification")
	}
	v, ok := sd.Query("jobState")
	if !ok || string(v) != "Active" {
		t.Fatalf("query = %q %v", v, ok)
	}
	if _, ok := sd.Query("missing"); ok {
		t.Fatal("query invented element")
	}
	if len(sd.Names()) != 1 {
		t.Fatalf("names = %v", sd.Names())
	}
}

func TestLifetimeManagement(t *testing.T) {
	b := newBed(t, nil)
	svc := newEchoService()
	b.container.Publish("tmp", svc)

	// Set termination in the past, sweep, and the service is gone.
	when := time.Now().Add(-time.Minute).Format(time.RFC3339)
	if _, err := b.client.InvokeSigned("tmp", "SetTerminationTime", []byte(when)); err != nil {
		t.Fatal(err)
	}
	removed := b.container.SweepExpired(time.Now())
	if len(removed) != 1 || removed[0] != "tmp" {
		t.Fatalf("removed = %v", removed)
	}
	if _, err := b.client.InvokeSigned("tmp", "echo", nil); err == nil {
		t.Fatal("swept service still invocable")
	}
}

func TestDestroyedServiceRejects(t *testing.T) {
	b := newBed(t, nil)
	svc := newEchoService()
	b.container.Publish("d", svc)
	if _, err := b.client.InvokeSigned("d", "Destroy", nil); err != nil {
		t.Fatal(err)
	}
	_, err := b.client.InvokeSigned("d", "echo", nil)
	if err == nil || !strings.Contains(err.Error(), "destroyed") {
		t.Fatalf("destroyed service: %v", err)
	}
}

func TestLimitedProxyRejectedByJobContainer(t *testing.T) {
	// A container with RejectLimited (job-creating) refuses limited
	// proxies in both stateless and stateful modes.
	auth, _ := ca.New(gridcert.MustParseName("/O=Grid/CN=CA"), 24*time.Hour, ca.DefaultPolicy())
	ts := gridcert.NewTrustStore()
	ts.AddRoot(auth.Certificate())
	alice, _ := auth.NewEntity(gridcert.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	host, _ := auth.NewHostEntity(gridcert.MustParseName("/O=Grid/CN=host jc"), 12*time.Hour)
	container, err := NewContainer(ContainerConfig{
		Name: "jc", Credential: host, TrustStore: ts, RejectLimited: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	container.Publish("echo", newEchoService())
	lim, err := proxy.New(alice, proxy.Options{Variant: gridcert.ProxyLimited})
	if err != nil {
		t.Fatal(err)
	}
	client := &Client{Transport: soap.Pipe(container.Dispatcher()), Credential: lim, TrustStore: ts}
	if _, err := client.InvokeSigned("echo", "echo", nil); err == nil {
		t.Fatal("limited proxy accepted for signed call")
	}
	if _, err := client.InvokeSecure("echo", "echo", nil); err == nil {
		t.Fatal("limited proxy accepted for conversation")
	}
	// A full proxy works.
	full, _ := proxy.New(alice, proxy.Options{})
	client2 := &Client{Transport: soap.Pipe(container.Dispatcher()), Credential: full, TrustStore: ts}
	if _, err := client2.InvokeSigned("echo", "echo", nil); err != nil {
		t.Fatal(err)
	}
}

func TestFetchContainerPolicy(t *testing.T) {
	b := newBed(t, nil)
	pipe := b.client.Transport
	pol, err := wssec.FetchPolicy(context.Background(), func(_ context.Context, env *soap.Envelope) (*soap.Envelope, error) {
		return pipe(env)
	})
	if err != nil {
		t.Fatal(err)
	}
	if pol.Service != "c1" || len(pol.Mechanisms) != 2 || len(pol.TrustRoots) == 0 {
		t.Fatalf("policy = %+v", pol)
	}
}

func TestUnknownHandleAndMalformedAction(t *testing.T) {
	b := newBed(t, nil)
	if _, err := b.client.InvokeSigned("ghost", "op", nil); !errorContains(err, "no such service") {
		t.Fatalf("unknown handle: %v", err)
	}
	env := soap.NewEnvelope("ogsa/nopslash", nil)
	if _, err := b.container.Dispatcher().Dispatch(env); err == nil {
		t.Fatal("malformed action accepted")
	}
}

func errorContains(err error, substr string) bool {
	return err != nil && strings.Contains(err.Error(), substr)
}

func TestConcurrentInvocations(t *testing.T) {
	b := newBed(t, nil)
	b.container.Publish("echo", newEchoService())
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.client.InvokeSigned("echo", "echo", []byte("x")); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func BenchmarkSignedInvocation(b *testing.B) {
	bd := newBed(b, nil)
	bd.container.Publish("echo", newEchoService())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bd.client.InvokeSigned("echo", "echo", []byte("x")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSecureInvocation(b *testing.B) {
	bd := newBed(b, nil)
	bd.container.Publish("echo", newEchoService())
	if _, err := bd.client.InvokeSecure("echo", "echo", []byte("warm")); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bd.client.InvokeSecure("echo", "echo", []byte("x")); err != nil {
			b.Fatal(err)
		}
	}
}

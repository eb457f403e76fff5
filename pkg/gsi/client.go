package gsi

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"repro/internal/cas"
	"repro/internal/gram"
	"repro/internal/gss"
	"repro/internal/proxy"
	"repro/internal/soap"
	"repro/internal/trace"
	"repro/internal/wssec"
)

// Client is the initiator handle of the redesigned API: one grid party
// (a user proxy, a service acting on a user's behalf) bound to an
// Environment, from which it takes trust roots and clock. All blocking
// operations take a context.Context and honor its cancellation and
// deadline; all failures are *Error values classified onto the package
// taxonomy.
//
//	client, _ := env.NewClient(aliceProxy, gsi.WithTransport(gsi.TransportGT2()))
//	sess, err := client.Connect(ctx, endpoint)
type Client struct {
	env  *Environment
	cred *Credential
	base settings
}

// NewClient builds a Client from a credential. A nil credential is
// allowed only together with WithAnonymous or WithCredentialManager (a
// managed client always reads the manager's current credential, so a
// fixed one here would be misleading). Any pool option
// (WithSessionPool, WithMaxIdle, WithIdleTTL, WithMaxConcurrentPerHost)
// enables session pooling; without an explicitly shared pool the client
// gets a private one tuned by those options. A pooling client bound to
// a CredentialManager rekeys its pool on every rotation: the replaced
// credential's sessions drain and its resumption trees are dropped.
func (e *Environment) NewClient(cred *Credential, opts ...Option) (*Client, error) {
	base := settings{transport: TransportGT2()}
	base, err := base.apply(opts)
	if err != nil {
		return nil, opErr("gsi.NewClient", err)
	}
	if cred == nil && !base.anonymous && base.credman == nil {
		return nil, opErr("gsi.NewClient", errors.New("gsi: client requires a credential unless anonymous or managed"))
	}
	if cred != nil && base.credman != nil {
		return nil, opErr("gsi.NewClient", errors.New("gsi: a managed client takes its credential from the manager; pass a nil credential"))
	}
	if base.poolEnable && base.pool == nil {
		base.pool = newSessionPool(base)
	}
	if base.pool != nil && base.credman != nil {
		base.credman.bindPool(base.pool)
	}
	if base.metrics != nil {
		id := cred
		if id == nil && base.credman != nil {
			id = base.credman.Current()
		}
		if err := registerClientMetrics(base.metrics, metricID(id), base.pool, base.credman); err != nil {
			return nil, opErr("gsi.NewClient", err)
		}
	}
	if err := base.buildTracer(); err != nil {
		return nil, opErr("gsi.NewClient", err)
	}
	return &Client{env: e, cred: cred, base: base}, nil
}

// credential resolves the client's effective credential: the manager's
// current one on a managed client, the fixed one otherwise. Callers
// snapshot it once per operation so a rotation cannot split one
// operation across two credentials.
func (c *Client) credential() *Credential {
	if c.base.credman != nil {
		return c.base.credman.Current()
	}
	return c.cred
}

// Pool returns the client's session pool (nil when pooling is off).
func (c *Client) Pool() *SessionPool { return c.base.pool }

// Environment returns the client's environment.
func (c *Client) Environment() *Environment { return c.env }

// Credential returns the client's effective credential: the manager's
// current one on a managed client (so it changes across rotations), the
// fixed one otherwise, nil for anonymous clients.
func (c *Client) Credential() *Credential { return c.credential() }

// CredentialManager returns the manager a managed client is bound to
// (nil otherwise).
func (c *Client) CredentialManager() *CredentialManager { return c.base.credman }

// resolve folds per-call options over the handle's base settings and
// derives the effective context: the deadline-skew budget (if any) is
// taken off the caller's deadline.
func (c *Client) resolve(ctx context.Context, opts []Option) (context.Context, context.CancelFunc, settings, error) {
	s, err := c.base.apply(opts)
	if err != nil {
		return ctx, func() {}, s, err
	}
	if deadline, ok := ctx.Deadline(); ok && s.deadlineSkew > 0 {
		skewed, cancel := context.WithDeadline(ctx, deadline.Add(-s.deadlineSkew))
		return skewed, cancel, s, nil
	}
	return ctx, func() {}, s, nil
}

// Connect establishes a secured session with the peer at endpoint over
// the client's transport. Cancellation aborts the handshake mid-flight,
// including while blocked on the network. On a pooling client the
// session is checked out of the pool — its Close returns it for reuse
// rather than tearing it down — so the handshake is paid only when the
// pool has no live session for (endpoint, transport, protection,
// delegation, credential).
func (c *Client) Connect(ctx context.Context, endpoint string, opts ...Option) (Session, error) {
	const op = "gsi.Client.Connect"
	ctx, cancelSkew, s, err := c.resolve(ctx, opts)
	defer cancelSkew()
	if err != nil {
		return nil, opErr(op, err)
	}
	if err := s.poolUsable(); err != nil {
		return nil, opErr(op, err)
	}
	// Tracing: a Connect inside a traced operation (OpenStream's dial,
	// a stream's parent span in ctx) lands as a retroactive child on
	// that span; a standalone traced Connect gets its own root span.
	parent := trace.SpanFromContext(ctx)
	var sp *trace.Span
	if s.tracer != nil && parent == nil {
		sp = s.tracer.StartRoot("client.connect")
		parent = sp
	}
	start := time.Time{}
	if parent != nil {
		start = time.Now()
	}
	sess, reused, err := c.session(ctx, endpoint, s, c.credential())
	if err != nil {
		sp.SetError(err)
		sp.End()
		return nil, opErr(op, err)
	}
	if parent != nil && !reused {
		if sp == nil {
			parent.AddTimed("client.connect", start, time.Since(start), "")
		}
		clientHandshakeSpan(parent, sess)
	}
	if sp != nil {
		sp.SetPeer(sess.Peer().Identity.String())
		sp.End()
	}
	return sess, nil
}

// session checks a session for cred out of the pool, or dials one on a
// non-pooling client. reused reports a checkout the idle pool satisfied
// (no handshake paid).
func (c *Client) session(ctx context.Context, endpoint string, s settings, cred *Credential) (sess Session, reused bool, err error) {
	if s.pool == nil {
		sess, err = c.dialSession(ctx, endpoint, s, cred)
		return sess, false, err
	}
	ps, err := s.pool.checkout(ctx, poolKeyOf(c.env, endpoint, s, cred),
		dialRequest{client: c, endpoint: endpoint, s: s, cred: cred})
	if err != nil {
		return nil, false, err
	}
	return ps, ps.reused, nil
}

// dialSession performs one dial attempt (directly or from a pool
// checkout miss). A pooling client threads the pool's
// secure-conversation resumption cache into the transport so even
// fresh GT3 dials skip the WS-Trust bootstrap when an earlier
// conversation with the peer is still warm.
func (c *Client) dialSession(ctx context.Context, endpoint string, s settings, cred *Credential) (Session, error) {
	cfg := DialConfig{
		Context:    s.contextConfig(c.env, cred),
		Protection: s.protection,
	}
	// A retired credential dials without the resumption cache at all:
	// otherwise a client still holding it would re-seed a parent
	// conversation under the retired fingerprint right after the
	// rotation invalidated those trees, and later dials would resume
	// off it. Retired means every dial bootstraps fresh, permanently.
	if s.pool != nil && !s.pool.fingerprintRetired(cred) {
		cfg.resumption = s.pool.resume
		cfg.resumeKey = poolKeyOf(c.env, endpoint, s, cred).resumeScope()
	}
	return s.transport.Dial(ctx, endpoint, cfg)
}

// Exchange performs one secured request/response with the peer at
// endpoint: on a pooling client it checks a session out, exchanges, and
// returns it; otherwise it dials, exchanges, and closes. When a reused
// session turns out poisoned (the peer went away while it sat idle),
// the exchange is retried on a fresh session — only reused sessions are
// retried, so an error from a newly established session is reported,
// not masked by re-execution.
//
// The retry relaxes at-most-once delivery: a parked connection that
// died after the peer processed the request but before the reply
// arrived is indistinguishable from one that died before delivery, so
// the op may execute twice. Issue non-idempotent operations through
// Connect and Session.Exchange instead, which never retry.
func (c *Client) Exchange(ctx context.Context, endpoint, op string, body []byte, opts ...Option) ([]byte, error) {
	out, _, err := c.call(ctx, "gsi.Client.Exchange", "client.exchange", endpoint, "", op, body, opts)
	return out, err
}

// call is Exchange (handle "") and Invoke (a GT3 container handle).
// Tracing: the root span covers the whole operation — Invoke's policy
// step, the dial (or pool checkout), any retries, and the request
// itself — and rides ctx so the transport appends its context to the
// outgoing frame. The disabled path pays nil checks only: no context
// wrap, no clock reads, no allocations.
func (c *Client) call(ctx context.Context, opName, root, endpoint, handle, op string, body []byte, opts []Option) ([]byte, Trace, error) {
	var phases Trace
	ctx, cancelSkew, s, err := c.resolve(ctx, opts)
	defer cancelSkew()
	if err == nil {
		err = s.poolUsable()
	}
	if err != nil {
		return nil, phases, opErr(opName, err)
	}
	var sp *trace.Span
	if s.tracer != nil {
		sp = s.tracer.StartRoot(root)
		ctx = trace.ContextWithSpan(ctx, sp)
	}
	if handle != "" {
		// Invoke endpoints are SOAP URLs, whatever WithTransport says.
		s.transport = TransportGT3()
		phases.Mechanism, phases.PolicyFetch, err = c.negotiate(ctx, sp, s, endpoint)
	}
	var out []byte
	if err == nil {
		out, err = c.roundTrip(ctx, sp, s, endpoint, handle, op, body, &phases)
	}
	sp.SetError(err)
	sp.End()
	if err != nil {
		return nil, phases, opErr(opName, err)
	}
	return out, phases, nil
}

// roundTrip runs one request on a session to endpoint: checked out of
// the pool and returned, or dialed and closed. handle "" is a
// Session.Exchange, anything else a GT3 call on that container handle,
// whose dial and call times it records into phases.
//
// When a reused session turns out poisoned the request is retried on
// a fresh one. Every reused-but-poisoned session may hide another
// stale one behind it in the idle pool, so there is one attempt per
// possible parked session plus a final fresh dial. The credential is
// re-resolved per attempt so a retry racing a rotation lands on the
// successor.
func (c *Client) roundTrip(ctx context.Context, sp *trace.Span, s settings, endpoint, handle, op string, body []byte, phases *Trace) ([]byte, error) {
	attempts := 1
	if s.pool != nil {
		attempts = s.pool.maxIdle + 2
	}
	clocked := handle != "" || sp != nil
	for attempt := 1; ; attempt++ {
		var start, called time.Time
		if clocked {
			start = time.Now()
		}
		sess, reused, err := c.session(ctx, endpoint, s, c.credential())
		if err != nil {
			return nil, err
		}
		if clocked {
			called = time.Now()
		}
		if !reused {
			phases.TokenProcessing = called.Sub(start)
			if sp != nil {
				sp.AddTimed("client.connect", start, phases.TokenProcessing, "")
				clientHandshakeSpan(sp, sess)
			}
		}
		if sp != nil {
			sp.SetPeer(sess.Peer().Identity.String())
		}
		var out []byte
		if handle == "" {
			out, err = sess.Exchange(ctx, op, body)
		} else {
			out, err = sess.(handleInvoker).invoke(ctx, handle, op, body)
		}
		if clocked {
			phases.Invocation = time.Since(called)
		}
		retriable := err != nil && reused && sess.(*pooledSession).poisoned.Load() && ctx.Err() == nil
		sess.Close()
		if err == nil {
			sp.AddBytes(int64(len(body) + len(out)))
			return out, nil
		}
		if !retriable || attempt == attempts {
			return nil, err
		}
	}
}

// Establish runs an in-memory mutual authentication against an acceptor
// configuration — the handle-based form of the old EstablishContext free
// function, for co-located services and tests.
func (c *Client) Establish(ctx context.Context, acceptor ContextConfig, opts ...Option) (initiator, accepted *Context, err error) {
	const op = "gsi.Client.Establish"
	ctx, cancelSkew, s, err := c.resolve(ctx, opts)
	defer cancelSkew()
	if err != nil {
		return nil, nil, opErr(op, err)
	}
	ictx, actx, err := gss.EstablishContext(ctx, s.contextConfig(c.env, c.credential()), acceptor)
	if err != nil {
		return nil, nil, opErr(op, err)
	}
	return ictx, actx, nil
}

// Proxy creates a proxy credential below the client's credential
// (grid-proxy-init as a method).
func (c *Client) Proxy(opts ProxyOptions) (*Credential, error) {
	cred, err := proxy.New(c.credential(), opts)
	if err != nil {
		return nil, opErr("gsi.Client.Proxy", err)
	}
	return cred, nil
}

// RequestAssertion performs step 1 of the CAS flow (Figure 2): the
// client's authenticated identity asks the VO's CAS server for its
// signed policy assertion. Cancellation aborts the policy scan.
func (c *Client) RequestAssertion(ctx context.Context, server *CASServer, opts ...Option) (*CASAssertion, error) {
	const op = "gsi.Client.RequestAssertion"
	ctx, cancelSkew, _, err := c.resolve(ctx, opts)
	defer cancelSkew()
	if err != nil {
		return nil, opErr(op, err)
	}
	cred := c.credential()
	if cred == nil {
		return nil, opErr(op, errors.New("gsi: anonymous clients cannot request assertions"))
	}
	a, err := server.IssueAssertionContext(ctx, cred.Identity())
	if err != nil {
		return nil, opErr(op, err)
	}
	return a, nil
}

// EmbedAssertion wraps a CAS assertion into a restricted proxy below the
// client's credential (step 2 of Figure 2), returning the credential the
// client presents to VO resources.
func (c *Client) EmbedAssertion(a *CASAssertion) (*Credential, error) {
	cred, err := cas.EmbedInProxy(c.credential(), a)
	if err != nil {
		return nil, opErr("gsi.Client.EmbedAssertion", err)
	}
	return cred, nil
}

// RetrieveCredential authenticates to a MyProxy repository by passphrase
// and receives a fresh short-lived proxy delegated from the stored
// credential. The private key is generated locally and never crosses the
// exchange.
func (c *Client) RetrieveCredential(ctx context.Context, repo *MyProxy, username, passphrase string, lifetime time.Duration, opts ...Option) (*Credential, error) {
	const op = "gsi.Client.RetrieveCredential"
	ctx, cancelSkew, _, err := c.resolve(ctx, opts)
	defer cancelSkew()
	if err != nil {
		return nil, opErr(op, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, opErr(op, err)
	}
	delegatee, req, err := proxy.NewDelegatee(lifetime, false)
	if err != nil {
		return nil, opErr(op, err)
	}
	req.Lifetime = lifetime
	reply, err := repo.RetrieveContext(ctx, username, passphrase, req)
	if err != nil {
		return nil, opErr(op, err)
	}
	cred, err := delegatee.Accept(reply)
	if err != nil {
		return nil, opErr(op, err)
	}
	return cred, nil
}

// StoreCredential delegates a proxy below the client's credential into a
// MyProxy repository under username/passphrase; maxLifetime bounds
// proxies later retrieved.
func (c *Client) StoreCredential(ctx context.Context, repo *MyProxy, username, passphrase string, deposit *Credential, maxLifetime time.Duration, opts ...Option) error {
	const op = "gsi.Client.StoreCredential"
	ctx, cancelSkew, _, err := c.resolve(ctx, opts)
	defer cancelSkew()
	if err != nil {
		return opErr(op, err)
	}
	if err := repo.StoreContext(ctx, username, passphrase, deposit, maxLifetime); err != nil {
		return opErr(op, err)
	}
	return nil
}

// SubmitJob runs the full Figure-4 GRAM flow against a resource: sign
// and submit the description, then mutually authenticate with the
// created MJS, delegate if the description asks for it, and start the
// job. Cancellation aborts between the submit, connect, delegate, and
// start steps.
func (c *Client) SubmitJob(ctx context.Context, resource *JobResource, desc JobDescription, opts ...Option) (*MJS, error) {
	const op = "gsi.Client.SubmitJob"
	ctx, cancelSkew, s, err := c.resolve(ctx, opts)
	defer cancelSkew()
	if err != nil {
		return nil, opErr(op, err)
	}
	// The resolved options shape the step-7 MJS connection: delegation
	// intent, peer pinning, limited-proxy rejection, depth caps.
	gc := &gram.Client{
		Credential:    c.credential(),
		Trust:         c.env.trust,
		Resource:      resource,
		ConnectConfig: s.contextConfig(c.env, nil),
	}
	mjs, err := gc.SubmitAndRunContext(ctx, desc)
	if err != nil {
		return nil, opErr(op, err)
	}
	return mjs, nil
}

// Trace records where time went in one Invoke — the measurable form
// of Figure 3's numbered steps.
type Trace struct {
	PolicyFetch time.Duration // step 1
	// TokenProcessing is steps 3–4, the session dial: zero when the
	// checkout reused a pooled session.
	TokenProcessing time.Duration
	Invocation      time.Duration // delivery, step 5 and the service
	Mechanism       wssec.Mechanism
}

// Total sums the phases.
func (t Trace) Total() time.Duration {
	return t.PolicyFetch + t.TokenProcessing + t.Invocation
}

// handleInvoker is a GT3 session that can call any service of its
// container, not only the exchange handle.
type handleInvoker interface {
	invoke(ctx context.Context, handle, op string, body []byte) ([]byte, error)
}

// Invoke runs the Figure-3 secured request against the GT3 container at
// endpoint (a SOAP URL, whatever WithTransport says), calling op on the
// service published under handle. Step 1 fetches the container's
// published policy; step 2 agrees on the mechanism WithMessageProtection
// names, failing with an error wrapping wssec.ErrNoAgreement when the
// container does not publish it; steps 3–4 are the session, checked
// out and retried as Exchange's are (with the same at-most-once
// caveat); step 5 runs in the container.
func (c *Client) Invoke(ctx context.Context, endpoint, handle, op string, body []byte, opts ...Option) ([]byte, Trace, error) {
	return c.call(ctx, "gsi.Client.Invoke", "client.invoke", endpoint, handle, op, body, opts)
}

// negotiate runs Figure-3 steps 1–2 against the container at endpoint:
// it fetches the published policy and intersects it with exactly the
// mechanism the client's protection level selects, GSI proxy tokens,
// and the trust roots its credential chains to (the container
// re-verifies the chain).
func (c *Client) negotiate(ctx context.Context, sp *trace.Span, s settings, endpoint string) (wssec.Mechanism, time.Duration, error) {
	start := time.Now()
	soapClient := &soap.Client{Endpoint: endpoint}
	pol, err := wssec.FetchPolicy(ctx, soapClient.CallContext)
	fetched := time.Since(start)
	if sp != nil {
		sp.AddTimed("client.policy", start, fetched, "")
	}
	if err != nil {
		return "", fetched, fmt.Errorf("gsi: fetching policy: %w", err)
	}
	caps := wssec.ClientCapabilities{
		Mechanisms: []wssec.Mechanism{wssec.MechSecureConversation},
		TokenTypes: []string{"gsi:proxy"},
		CanEncrypt: s.protection != ProtectionSigned,
	}
	if s.protection == ProtectionSigned {
		caps.Mechanisms[0] = wssec.MechMessageSignature
	}
	if cred := c.credential(); cred != nil {
		top := cred.Chain[len(cred.Chain)-1]
		for _, name := range []Name{top.Issuer, top.Subject} {
			if root, ok := c.env.trust.Root(name); ok {
				fp := root.Fingerprint()
				caps.TrustRootFingerprints = append(caps.TrustRootFingerprints, hex.EncodeToString(fp[:]))
			}
		}
	}
	ag, err := wssec.Intersect(caps, pol)
	if err != nil {
		return "", fetched, fmt.Errorf("gsi: %s publishes mechanisms %v: %w", endpoint, pol.Mechanisms, err)
	}
	return ag.Mechanism, fetched, nil
}

// compile-time interface checks for the session and stream
// implementations.
var (
	_ Session = (*gt2Session)(nil)
	_ Session = (*gt3Session)(nil)
	_ Session = (*gt3SignedSession)(nil)
	_ Session = (*pooledSession)(nil)

	_ sessionHealth = (*gt2Session)(nil)
	_ sessionHealth = (*gt3Session)(nil)
	_ sessionProber = (*gt2Session)(nil)

	_ handleInvoker = (*gt3Session)(nil)
	_ handleInvoker = (*gt3SignedSession)(nil)
	_ handleInvoker = (*pooledSession)(nil)

	_ Stream = (*gt2Stream)(nil)
	_ Stream = (*gt3Stream)(nil)
	_ Stream = (*serverGT2Stream)(nil)
	_ Stream = (*serverGT3Stream)(nil)
	_ Stream = (*pooledStream)(nil)
	_ Stream = (*ownedStream)(nil)
)

package cas

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/authz"
	"repro/internal/gridcert"
)

// Enforcer is the resource side of Figure 2 (step 3) and the one place
// a verified identity becomes a decision: it verifies the CAS assertion
// the chain carries (or, for members who arrive bare, consults the
// pulled VO bundle), evaluates the VO policy and local policy, and
// permits the request only when *both* permit — keeping the resource
// the ultimate authority. The facade's AuthorizationPipeline decides
// through the same Enforcer, adding only its caches, gridmap and audit.
type Enforcer struct {
	// Trust validates requester chains.
	Trust *gridcert.TrustStore
	// Local is the resource's own policy. nil states no policy: nothing
	// is permitted.
	Local *authz.Policy
	// Replica is an optional pulled VO policy bundle: it answers the
	// VO's half of the decision for members presenting no assertion.
	Replica *Replica

	mu    sync.RWMutex
	vos   map[string]*gridcert.Certificate // trusted CAS signing certs by VO DN
	voGen uint64
}

// NewEnforcer creates a resource-side enforcer.
func NewEnforcer(trust *gridcert.TrustStore, local *authz.Policy) *Enforcer {
	return &Enforcer{
		Trust: trust,
		Local: local,
		vos:   make(map[string]*gridcert.Certificate),
	}
}

// TrustVO registers CAS server certificates: the resource provider's act
// of outsourcing policy to those communities. Each call bumps the VO
// generation.
func (e *Enforcer) TrustVO(casCerts ...*gridcert.Certificate) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, cert := range casCerts {
		e.vos[cert.Subject.String()] = cert
	}
	e.voGen++
}

// DistrustVO removes a community's signing certificate; assertions it
// issued stop being honored on the very next decision.
func (e *Enforcer) DistrustVO(vo gridcert.Name) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.vos, vo.String())
	e.voGen++
}

// VOGeneration counts trusted-VO set mutations. A decision cached under
// one generation must not be served under another.
func (e *Enforcer) VOGeneration() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.voGen
}

// checkAssertion extracts and fully verifies the CAS assertion a
// validated chain carries: decode, trusted-VO resolution, signature and
// validity window, subject binding. Outcomes:
//
//   - (nil, "", nil): the chain carries no assertion at all — the
//     caller falls back to local policy;
//   - (a, "", nil): a is fully verified and bound to the chain's
//     identity;
//   - (nil, reason, err): an assertion is present but unusable — the
//     caller must deny, quoting reason (err adds detail and may be nil).
func (e *Enforcer) checkAssertion(info *gridcert.ChainInfo, now time.Time) (*Assertion, string, error) {
	assertion, aerr := ExtractAssertion(info)
	switch {
	case errors.Is(aerr, ErrNoAssertion):
		return nil, "", nil
	case aerr != nil:
		// Present but malformed: failing open here (degrading to
		// local-policy-only) is the bug this path exists to prevent.
		return nil, "CAS assertion present but invalid", aerr
	}
	e.mu.RLock()
	casCert, trusted := e.vos[assertion.VO.String()]
	e.mu.RUnlock()
	if !trusted {
		return nil, fmt.Sprintf("assertion from untrusted VO %q", assertion.VO), nil
	}
	if err := assertion.Verify(casCert, now); err != nil {
		return nil, "assertion verification failed", err
	}
	if !assertion.Subject.Equal(info.Identity) {
		return nil, "assertion subject does not match authenticated identity", nil
	}
	return assertion, "", nil
}

// Result is an explained decision, for auditing.
type Result struct {
	Decision authz.Decision
	// Local and VO hold the component decisions.
	Local authz.Decision
	VO    authz.Decision
	// Identity is the authenticated requester.
	Identity gridcert.Name
	// VOName is the community whose policy formed the VO layer (empty
	// when no assertion or bundle membership applied).
	VOName gridcert.Name
	// Expires is the applied assertion's expiry (zero without one): a
	// cached decision must not outlive it.
	Expires time.Time
	// Reason is a human-readable explanation.
	Reason string
}

// Authorize runs the full step-3 check on a presented chain.
func (e *Enforcer) Authorize(chain []*gridcert.Certificate, resource, action string, now time.Time) (Result, error) {
	return e.AuthorizeContext(context.Background(), chain, resource, action, now)
}

// AuthorizeContext is Authorize honoring ctx: a canceled or expired
// context denies the request with ctx.Err() before any validation work.
// It verifies the chain, then decides through Decide.
func (e *Enforcer) AuthorizeContext(ctx context.Context, chain []*gridcert.Certificate, resource, action string, now time.Time) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{Decision: authz.Deny, Reason: "request context ended"}, err
	}
	if now.IsZero() {
		now = time.Now()
	}
	info, err := e.Trust.Verify(chain, gridcert.VerifyOptions{Now: now})
	if err != nil {
		return Result{Decision: authz.Deny, Reason: "authentication failed"}, err
	}
	return e.Decide(info, resource, action, now)
}

// Decide is Figure 2 step 3 for an already-verified chain: may
// info.Identity perform action on resource at now? The VO layer comes
// from the chain's assertion when one is presented, or — for members
// that arrive bare — from the Replica bundle; either way both layers
// must permit. Without a VO layer the decision rests on local policy
// alone, which must then permit explicitly. An assertion that is
// present but unusable denies outright, with a non-nil error carrying
// the decode, signature or invalid-effect detail when there is one.
func (e *Enforcer) Decide(info *gridcert.ChainInfo, resource, action string, now time.Time) (Result, error) {
	res := Result{Identity: info.Identity}
	req := authz.Request{Subject: info.Identity, Resource: resource, Action: action, Time: now}

	// A present-but-malformed assertion must deny outright: degrading
	// to local-policy-only would let a corrupted or tampered CAS block
	// widen access to whatever local policy allows.
	assertion, reason, aerr := e.checkAssertion(info, now)
	if reason != "" {
		res.Decision = authz.Deny
		res.Reason = reason
		return res, aerr
	}

	voLayer := false
	if assertion != nil {
		res.VOName = assertion.VO
		res.Expires = assertion.ExpiresAt
		// Only now — signature checked, subject bound — may the
		// assertion's VO attributes flow into the request, so local
		// policy can match on community groups and roles the VO
		// actually vouched for.
		req.Groups = assertion.Groups
		req.Roles = assertion.Roles
		voPolicy := authz.NewPolicy(authz.DenyOverrides)
		if err := voPolicy.AddChecked(assertion.Rules...); err != nil {
			// A signed assertion can still carry an effect byte outside
			// the enum; refusing it here keeps an attacker-chosen zero
			// effect from ever reaching rule evaluation.
			res.Decision = authz.Deny
			res.Reason = "assertion carries a rule with an invalid effect"
			return res, err
		}
		res.VO = voPolicy.Evaluate(req)
		voLayer = true
	} else if e.Replica != nil {
		// The bundle vouches for members only; a non-member falls
		// through to local policy alone.
		if groups, roles, ok := e.Replica.Lookup(info.Identity); ok {
			res.VOName = e.Replica.VO()
			req.Groups = groups
			req.Roles = roles
			res.VO = e.Replica.Evaluate(req)
			voLayer = true
		}
	}

	if e.Local != nil {
		res.Local = e.Local.Evaluate(req)
	}
	switch {
	case !voLayer && res.Local == authz.Permit:
		res.Decision = authz.Permit
		res.Reason = "permitted by local policy alone"
	case !voLayer:
		res.Decision = authz.Deny
		res.Reason = "no CAS assertion and local policy does not permit"
	// The applied policy is the intersection: both must permit.
	case authz.Combine(res.Local, res.VO) != authz.Permit:
		res.Decision = authz.Deny
		res.Reason = fmt.Sprintf("intersection of local (%s) and VO (%s) policy", res.Local, res.VO)
	case assertion != nil:
		res.Decision = authz.Permit
		res.Reason = "permitted by local ∩ VO policy"
	default:
		res.Decision = authz.Permit
		res.Reason = "permitted by local ∩ replicated VO policy"
	}
	return res, nil
}

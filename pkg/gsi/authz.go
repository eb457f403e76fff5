package gsi

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cas"
	"repro/internal/gridcert"
	"repro/internal/ogsa"
	"repro/internal/trace"
)

// AuditSink receives security-relevant events. secsvc.AuditLog — the
// paper's §4.1 audit service with its tamper-evident hash chain —
// implements it, as does any ogsa.AuditSink.
type AuditSink = ogsa.AuditSink

// AuthzDecision is one explained authorization outcome from an
// AuthorizationPipeline: the combined decision, its local and VO
// components, the authenticated identity and its gridmap account, and
// whether the answer came from the decision cache.
type AuthzDecision struct {
	// Decision is the effective outcome: Permit or Deny (the pipeline
	// never returns NotApplicable — an unmatched request denies).
	Decision Decision
	// Local and VO are the component decisions (VO is NotApplicable
	// when the peer presented no CAS assertion).
	Local Decision
	VO    Decision
	// Identity is the authenticated requester (end-entity DN).
	Identity Name
	// VOName is the community that issued the applied assertion (empty
	// without one).
	VOName Name
	// LocalAccount is the grid-mapfile account for the identity (empty
	// when the pipeline has no gridmap).
	LocalAccount string
	// Reason explains the decision for humans and audit trails.
	Reason string
	// Cached reports that the decision was served from the cache.
	Cached bool
}

// DefaultDecisionTTL bounds how long a cached authorization decision
// may be served without re-evaluation. Generation counters invalidate
// cached decisions immediately on policy, gridmap, VO-set, or
// trust-store mutation; the TTL is the backstop for state the counters
// cannot see (e.g. wall-clock movement across a rule's NotAfter).
const DefaultDecisionTTL = 30 * time.Second

// AuthorizationPipeline is the facade's policy decision point: the
// paper's §4.1 authorization service joined with Figure 2's resource
// rule ("the resource checks both local policy and the VO policy").
// For each exchange it verifies the authenticated peer's chain through
// the environment's verified-chain cache, decides through a
// cas.Enforcer (assertion check, VO ∩ local policy), maps the identity
// through the grid-mapfile, and emits the decision to the audit sink.
// A sharded decision cache keyed by (credential fingerprint, resource,
// action, policy generations) makes the hot path one map lookup instead
// of chain crypto plus rule-list scans.
//
// Build one with Environment.NewAuthorizationPipeline and attach it to
// servers with WithAuthorizationPipeline, or let a Server assemble a
// private one from WithLocalPolicy/WithTrustedVO/WithGridMap options.
type AuthorizationPipeline struct {
	env *Environment
	// enforcer makes every Figure-2 decision: it owns the local policy,
	// the trusted-VO set and the pulled CAS bundle replica
	// (WithCASUpstream), which answers the VO's half for members who
	// arrive without an assertion.
	enforcer *cas.Enforcer
	gridmap  *GridMap
	audit    AuditSink
	cache    *decisionCache // nil when disabled
	// durable is the WAL-backed state the pipeline's policy/gridmap/audit
	// came from (WithDurableState); nil for in-memory pipelines.
	durable *DurableState
}

// TraceAuditSink is the optional extension of AuditSink that carries
// the active trace id into the audit record. secsvc.AuditLog implements
// it — the id joins the hash chain, so the decision↔trace correlation
// is as tamper-evident as the decision itself.
type TraceAuditSink interface {
	AuditSink
	RecordTrace(event, subject, detail, traceID string)
}

// NewAuthorizationPipeline builds a standalone pipeline from the
// environment's trust roots and clock plus the pipeline options
// (WithLocalPolicy, WithTrustedVO, WithGridMap, WithDecisionCache,
// WithAuditSink). Without WithLocalPolicy the pipeline denies
// everything: resources are closed-world, so policy must be stated.
func (e *Environment) NewAuthorizationPipeline(opts ...Option) (*AuthorizationPipeline, error) {
	var s settings
	s, err := s.apply(opts)
	if err != nil {
		return nil, opErr("gsi.NewAuthorizationPipeline", err)
	}
	if s.authzAdopted {
		// Accepting it silently would discard the prebuilt pipeline and
		// hand back a policy-less deny-all one — the same trap NewServer
		// and Serve refuse loudly.
		return nil, opErr("gsi.NewAuthorizationPipeline", errors.New("gsi: WithAuthorizationPipeline is a server option; NewAuthorizationPipeline builds pipelines from assembly options"))
	}
	if err := s.materializeDurable(); err != nil {
		return nil, opErr("gsi.NewAuthorizationPipeline", err)
	}
	return newPipeline(e, s), nil
}

// newPipeline assembles a pipeline from resolved settings.
func newPipeline(e *Environment, s settings) *AuthorizationPipeline {
	p := &AuthorizationPipeline{
		env:      e,
		enforcer: cas.NewEnforcer(e.trust, s.authzLocal),
		gridmap:  s.authzGridMap,
		audit:    s.authzAudit,
		durable:  s.durable,
	}
	ttl := DefaultDecisionTTL
	if s.authzTTLSet {
		ttl = s.authzTTL
	}
	if ttl > 0 {
		p.cache = newDecisionCache(ttl)
	}
	p.enforcer.TrustVO(s.authzVOs...)
	if s.casUpstream != nil {
		p.enforcer.Replica = cas.NewReplica(s.casUpstream.Cert)
		// Bundles from the upstream VO are as trusted as assertions it
		// signs: pulling implies trusting.
		p.enforcer.TrustVO(s.casUpstream.Cert)
	}
	return p
}

// Replica returns the pipeline's CAS bundle replica (nil unless
// WithCASUpstream configured one).
func (p *AuthorizationPipeline) Replica() *cas.Replica { return p.enforcer.Replica }

// DurableState returns the WAL-backed state the pipeline was assembled
// over (nil for in-memory pipelines).
func (p *AuthorizationPipeline) DurableState() *DurableState { return p.durable }

// TrustVO registers a CAS signing certificate at runtime: the resource
// provider's act of outsourcing a policy slice to that community.
// Registration bumps the VO-set generation, so cached decisions made
// under the previous set re-evaluate on their next lookup.
func (p *AuthorizationPipeline) TrustVO(certs ...*Certificate) { p.enforcer.TrustVO(certs...) }

// DistrustVO removes a community's signing certificate; assertions it
// issued stop being honored on the very next exchange.
func (p *AuthorizationPipeline) DistrustVO(vo Name) { p.enforcer.DistrustVO(vo) }

// LocalPolicy returns the pipeline's local policy (nil when none was
// configured; such a pipeline denies everything).
func (p *AuthorizationPipeline) LocalPolicy() *Policy { return p.enforcer.Local }

// GridMap returns the pipeline's grid-mapfile (nil when none).
func (p *AuthorizationPipeline) GridMap() *GridMap { return p.gridmap }

// CacheStats reports decision-cache effectiveness; the zero value when
// the cache is disabled.
func (p *AuthorizationPipeline) CacheStats() DecisionCacheStats {
	if p.cache == nil {
		return DecisionCacheStats{}
	}
	return p.cache.stats()
}

// generations snapshots every counter a cached decision depends on.
func (p *AuthorizationPipeline) generations() [5]uint64 {
	var g [5]uint64
	if local := p.enforcer.Local; local != nil {
		g[0] = local.Generation()
	}
	if p.gridmap != nil {
		g[1] = p.gridmap.Generation()
	}
	g[2] = p.enforcer.VOGeneration()
	g[3] = p.env.trust.Generation()
	if replica := p.enforcer.Replica; replica != nil {
		// Each applied bundle bumps the replica generation, so decisions
		// computed under the previous bundle stop being addressable.
		g[4] = replica.Generation()
	}
	return g
}

// Authorize runs the pipeline for one request: may the authenticated
// peer perform action on resource? The returned error is non-nil only
// for infrastructure failures (context ended, chain rejected); a clean
// policy deny is reported in AuthzDecision.Decision with a nil error.
// Every decision — cached or cold — is recorded to the audit sink.
func (p *AuthorizationPipeline) Authorize(ctx context.Context, peer Peer, resource, action string) (AuthzDecision, error) {
	if err := ctx.Err(); err != nil {
		// Audited like every other deny: the caller observed a refusal,
		// so the refusal must be in the trail.
		d, _ := p.finish(ctx, AuthzDecision{Decision: Deny, Reason: "request context ended"}, resource, action)
		return d, err
	}
	if peer.Anonymous {
		return p.finish(ctx, AuthzDecision{Decision: Deny, Reason: "anonymous peers are never authorized"}, resource, action)
	}
	leaf := peerLeaf(peer)
	if leaf == nil {
		return p.finish(ctx, AuthzDecision{Decision: Deny, Reason: "peer presented no certificate chain"}, resource, action)
	}
	now := p.env.Now()
	gens := p.generations()
	key := decisionKey{fp: leaf.Fingerprint(), resource: resource, action: action, gens: gens}
	if p.cache != nil {
		if d, warmed, ok := p.cache.lookup(key, now); ok {
			if !warmed {
				d.Cached = true
				return p.finish(ctx, d, resource, action)
			}
			// A warmed entry's decision came from this pipeline's own
			// policy state, but its fp→identity binding is the
			// publisher's unverified claim. Honor it only once the
			// peer's own verified chain proves the binding; otherwise
			// drop the entry and take the cold path, which decides from
			// scratch. A forged hot key can therefore waste one
			// evaluation, never flip a decision.
			if info, err := p.verifiedPeerInfo(peer, now); err == nil && info != nil && info.Identity.Equal(d.Identity) {
				p.cache.confirmWarm(key, chainNotAfter(peer, leaf))
				d.Cached = true
				return p.finish(ctx, d, resource, action)
			}
			p.cache.remove(key)
		}
	}
	d, expiry, err := p.evaluate(peer, leaf, resource, action, now)
	if err != nil {
		d, _ = p.finish(ctx, d, resource, action)
		return d, err
	}
	if p.cache != nil {
		p.cache.store(key, d, expiry, now)
	}
	return p.finish(ctx, d, resource, action)
}

// finish records the decision to the audit sink and returns it. When
// the sink understands trace ids and the context carries an active
// span, the trace id is recorded — and hash-chained — with the event.
func (p *AuthorizationPipeline) finish(ctx context.Context, d AuthzDecision, resource, action string) (AuthzDecision, error) {
	if p.audit != nil {
		detail := fmt.Sprintf("%s %s: %s", action, resource, d.Reason)
		if d.Cached {
			detail += " (cached)"
		}
		event := "authz-" + d.Decision.String()
		if ts, ok := p.audit.(TraceAuditSink); ok {
			if span := trace.SpanFromContext(ctx); span != nil {
				if sc := span.Context(); sc.Valid() {
					ts.RecordTrace(event, d.Identity.String(), detail, sc.TraceID.String())
					return d, nil
				}
			}
		}
		p.audit.Record(event, d.Identity.String(), detail)
	}
	return d, nil
}

// peerLeaf picks the certificate that keys per-credential caches.
func peerLeaf(peer Peer) *Certificate {
	if len(peer.Chain) > 0 {
		return peer.Chain[0]
	}
	if peer.Info != nil {
		return peer.Info.Leaf
	}
	return nil
}

// evaluate is the cold path: chain validation, the enforcer's Figure-2
// decision, gridmap mapping. It returns the decision and the instant it
// may be cached until.
func (p *AuthorizationPipeline) evaluate(peer Peer, leaf *Certificate, resource, action string, now time.Time) (AuthzDecision, time.Time, error) {
	expiry := now.Add(p.cacheTTL())
	// The chain bounds every cached decision: a permit must never
	// outlive the credential it was granted to.
	if notAfter := chainNotAfter(peer, leaf); notAfter.Before(expiry) {
		expiry = notAfter
	}
	info, err := p.verifiedPeerInfo(peer, now)
	if err != nil {
		return AuthzDecision{Decision: Deny, Reason: "authentication failed"}, expiry, err
	}
	if info == nil {
		return AuthzDecision{Decision: Deny, Reason: "peer presented no certificate chain"}, expiry, nil
	}
	// now is the environment clock, so time-bounded rules obey WithClock
	// and agree with chain validation.
	res, detail := p.enforcer.Decide(info, resource, action, now)
	d := p.mapAccount(res)
	if detail != nil && res.VOName.Empty() {
		// An assertion that failed its check keeps the root cause in the
		// decision (and thus the audit trail): "invalid assertion"
		// without the decode/signature detail is undebuggable for the
		// community that issued it.
		d.Reason += ": " + detail.Error()
	}
	// A cached grant must not outlive the assertion that backs it.
	if !res.Expires.IsZero() && res.Expires.Before(expiry) {
		expiry = res.Expires
	}
	return d, expiry, nil
}

// mapAccount turns the enforcer's result into a pipeline decision and
// applies the grid-mapfile mapping (paper §5.3 step 3): a permitted
// requester with no local account cannot be served — fail closed.
func (p *AuthorizationPipeline) mapAccount(res cas.Result) AuthzDecision {
	d := AuthzDecision{
		Decision: res.Decision, Local: res.Local, VO: res.VO,
		Identity: res.Identity, VOName: res.VOName, Reason: res.Reason,
	}
	if d.Decision == Permit && p.gridmap != nil {
		account, ok := p.gridmap.Lookup(d.Identity)
		if !ok {
			d.Decision = Deny
			d.Reason = fmt.Sprintf("no gridmap entry for %q", d.Identity)
			return d
		}
		d.LocalAccount = account
	}
	return d
}

// verifiedPeerInfo returns the peer's verified validation info: the
// presented chain when one is in hand, else the transport's
// connect-time info (nil when there is neither). A presented chain is
// re-validated even when the handshake already did: a long-lived
// session must not keep a credential alive across a CRL or root
// removal. The environment's verified-chain cache makes this one
// digest on the steady state, and its entries are keyed on trust-store
// generation and bounded by the validity window — so revocation bites
// on the next exchange, not at reconnect.
func (p *AuthorizationPipeline) verifiedPeerInfo(peer Peer, now time.Time) (*gridcert.ChainInfo, error) {
	if len(peer.Chain) > 0 {
		return p.env.trust.VerifyCached(p.env.chains, gridcert.EncodeChain(peer.Chain), peer.Chain, gridcert.VerifyOptions{Now: now})
	}
	return peer.Info, nil
}

// HotDecisionKeys exports the decision cache's top-n hottest live keys
// (subject DN, chain fingerprint, resource, action — never decisions)
// for a standby's warm-cache promotion. Nil when caching is disabled.
func (p *AuthorizationPipeline) HotDecisionKeys(n int) []cas.HotKey {
	if p.cache == nil || n <= 0 {
		return nil
	}
	if n > cas.MaxHotKeys {
		n = cas.MaxHotKeys
	}
	return p.cache.hotKeys(n, p.env.Now(), p.generations())
}

// WarmDecisions pre-computes decisions for publisher-exported hot keys
// through this pipeline's OWN policy state — replica bundle, local
// policy, gridmap — and installs them as warmed cache entries, so a
// standby promotes serving hits instead of stampeding cold misses.
// Nothing in the keys is trusted as authority: the decision is computed
// here, its expiry is capped by the exporter's NotAfter, a live entry
// is never displaced, and the fp→identity binding stays unverified
// until a real peer's chain proves it (see Authorize). Returns how many
// entries were installed.
func (p *AuthorizationPipeline) WarmDecisions(keys []cas.HotKey) int {
	if p.cache == nil {
		return 0
	}
	now := p.env.Now()
	warmed := 0
	for _, k := range keys {
		if k.Resource == "" || k.Action == "" {
			continue
		}
		identity, err := gridcert.ParseName(k.Subject)
		if err != nil {
			continue
		}
		gens := p.generations()
		key := decisionKey{fp: k.FP, resource: k.Resource, action: k.Action, gens: gens}
		// No chain, so no assertion: the replica and local policy decide.
		res, _ := p.enforcer.Decide(&gridcert.ChainInfo{Identity: identity}, k.Resource, k.Action, now)
		d := p.mapAccount(res)
		expiry := now.Add(p.cacheTTL())
		if k.NotAfter > 0 {
			if na := time.Unix(k.NotAfter, 0); na.Before(expiry) {
				expiry = na
			}
		}
		if !expiry.After(now) {
			continue
		}
		if p.cache.storeWarm(key, d, expiry, now) {
			warmed++
		}
	}
	return warmed
}

func (p *AuthorizationPipeline) cacheTTL() time.Duration {
	if p.cache != nil {
		return p.cache.ttl
	}
	return DefaultDecisionTTL
}

// chainNotAfter returns the earliest NotAfter across the peer's chain
// (or the leaf's alone when only validation info is at hand).
func chainNotAfter(peer Peer, leaf *Certificate) time.Time {
	notAfter := leaf.NotAfter
	for _, c := range peer.Chain {
		if c.NotAfter.Before(notAfter) {
			notAfter = c.NotAfter
		}
	}
	return notAfter
}

// --- the sharded decision cache ----------------------------------------

const decisionShardCount = 16

// decisionShardCap bounds entries per shard; overflow evicts an
// arbitrary victim (the cache is a performance aid, not a registry).
const decisionShardCap = 4096

type decisionKey struct {
	fp       [32]byte
	resource string
	action   string
	// gens pins the key to the exact policy state the decision was
	// computed under: local policy, gridmap, trusted-VO set, trust
	// store, and CAS bundle replica. Any mutation bumps a counter, so
	// stale entries simply stop being addressable — invalidation
	// without a sweep.
	gens [5]uint64
}

type decisionEntry struct {
	d      AuthzDecision
	expiry time.Time
	// warmed marks an entry pre-computed from a publisher-exported hot
	// key: its decision came from this pipeline's own policy state, but
	// the fp→identity binding is the publisher's claim, unverified until
	// the first real peer presents a chain that proves it (see
	// Authorize). d and expiry are written only under the shard lock;
	// hits is the only field mutated on the read path.
	warmed bool
	hits   atomic.Uint64
}

type decisionShard struct {
	mu sync.RWMutex
	m  map[decisionKey]*decisionEntry
}

// decisionCache is the per-pipeline decision memo: sharded by key hash
// so concurrent exchanges from many peers do not serialize on one lock.
type decisionCache struct {
	ttl    time.Duration
	shards [decisionShardCount]decisionShard
	hits   atomic.Uint64
	misses atomic.Uint64
}

// DecisionCacheStats reports decision-cache effectiveness. MaxShard is
// the fullest shard's entry count — shard pressure: Len near
// shards×capacity with MaxShard at capacity means evictions are
// displacing live decisions.
type DecisionCacheStats struct {
	Hits     uint64
	Misses   uint64
	Len      int
	MaxShard int
}

func newDecisionCache(ttl time.Duration) *decisionCache {
	c := &decisionCache{ttl: ttl}
	for i := range c.shards {
		c.shards[i].m = make(map[decisionKey]*decisionEntry)
	}
	return c
}

func (c *decisionCache) shard(key decisionKey) *decisionShard {
	h := fnv.New32a()
	h.Write(key.fp[:8])
	h.Write([]byte(key.resource))
	h.Write([]byte(key.action))
	return &c.shards[h.Sum32()%decisionShardCount]
}

func (c *decisionCache) lookup(key decisionKey, now time.Time) (d AuthzDecision, warmed, ok bool) {
	s := c.shard(key)
	s.mu.RLock()
	e, live := s.m[key]
	var expired bool
	if live {
		// Copy under the lock: confirmWarm mutates expiry/warmed.
		d, warmed = e.d, e.warmed
		expired = now.After(e.expiry)
		if !expired {
			e.hits.Add(1)
		}
	}
	s.mu.RUnlock()
	if live && expired {
		// Reap in place so dead entries do not sit at a shard's cap
		// crowding out live ones.
		s.mu.Lock()
		if e2, still := s.m[key]; still && now.After(e2.expiry) {
			delete(s.m, key)
		}
		s.mu.Unlock()
		live = false
	}
	if !live {
		c.misses.Add(1)
		return AuthzDecision{}, false, false
	}
	c.hits.Add(1)
	return d, warmed, true
}

// confirmWarm upgrades a warmed entry whose fp→identity binding a real
// peer's verified chain just proved: the entry becomes a normal cached
// decision, with its expiry tightened to the chain's horizon (the
// warm-time entry could not know it).
func (c *decisionCache) confirmWarm(key decisionKey, chainNotAfter time.Time) {
	s := c.shard(key)
	s.mu.Lock()
	if e, ok := s.m[key]; ok && e.warmed {
		e.warmed = false
		if chainNotAfter.Before(e.expiry) {
			e.expiry = chainNotAfter
		}
	}
	s.mu.Unlock()
}

// remove drops an entry (a warmed entry whose binding failed to prove).
func (c *decisionCache) remove(key decisionKey) {
	s := c.shard(key)
	s.mu.Lock()
	delete(s.m, key)
	s.mu.Unlock()
}

// evictionScan bounds how many entries a full shard examines looking
// for a dead victim before giving up and evicting arbitrarily.
const evictionScan = 32

// makeRoomLocked frees one slot when the shard is at cap and key is not
// already present; the caller holds s.mu. Prefer dead victims: entries
// past their TTL or computed under superseded generations (the incoming
// key carries the current ones) are unreachable and should go first;
// only a shard full of live entries sacrifices an arbitrary one.
func (s *decisionShard) makeRoomLocked(key decisionKey, now time.Time) {
	if _, exists := s.m[key]; exists || len(s.m) < decisionShardCap {
		return
	}
	var fallback decisionKey
	haveFallback, evicted := false, false
	scanned := 0
	for k, e := range s.m {
		if now.After(e.expiry) || k.gens != key.gens {
			delete(s.m, k)
			evicted = true
			break
		}
		if !haveFallback {
			fallback, haveFallback = k, true
		}
		if scanned++; scanned >= evictionScan {
			break
		}
	}
	if !evicted && haveFallback {
		delete(s.m, fallback)
	}
}

func (c *decisionCache) store(key decisionKey, d AuthzDecision, expiry time.Time, now time.Time) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.makeRoomLocked(key, now)
	e := &decisionEntry{d: d, expiry: expiry}
	if old, ok := s.m[key]; ok {
		// Re-evaluation of a hot key keeps its heat.
		e.hits.Store(old.hits.Load())
	}
	s.m[key] = e
}

// storeWarm installs a pre-computed (warmed) decision unless a live
// entry — real or already warmed — holds the slot. Reports whether the
// entry was installed.
func (c *decisionCache) storeWarm(key decisionKey, d AuthzDecision, expiry time.Time, now time.Time) bool {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[key]; ok && !now.After(e.expiry) {
		return false
	}
	s.makeRoomLocked(key, now)
	s.m[key] = &decisionEntry{d: d, expiry: expiry, warmed: true}
	return true
}

// hotKeys exports the cache's hottest live, confirmed entries as CAS
// hot keys: identifiers only, never decisions. Entries under superseded
// generations, expired, warmed-but-unconfirmed, or without an identity
// (early-path denies) are skipped.
func (c *decisionCache) hotKeys(n int, now time.Time, gens [5]uint64) []cas.HotKey {
	type cand struct {
		key  cas.HotKey
		hits uint64
	}
	var cands []cand
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		for k, e := range s.m {
			if k.gens != gens || e.warmed || now.After(e.expiry) {
				continue
			}
			subject := e.d.Identity.String()
			if subject == "" {
				continue
			}
			cands = append(cands, cand{
				key: cas.HotKey{
					Subject:  subject,
					FP:       k.fp,
					Resource: k.resource,
					Action:   k.action,
					NotAfter: e.expiry.Unix(),
				},
				hits: e.hits.Load(),
			})
		}
		s.mu.RUnlock()
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].hits > cands[j].hits })
	if len(cands) > n {
		cands = cands[:n]
	}
	keys := make([]cas.HotKey, len(cands))
	for i, c := range cands {
		keys[i] = c.key
	}
	return keys
}

func (c *decisionCache) stats() DecisionCacheStats {
	st := DecisionCacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
	for i := range c.shards {
		c.shards[i].mu.RLock()
		n := len(c.shards[i].m)
		c.shards[i].mu.RUnlock()
		st.Len += n
		if n > st.MaxShard {
			st.MaxShard = n
		}
	}
	return st
}

// Package core assembles the server side of the paper's §4–5 GSI3
// security stack: a hosting environment (ogsa.Container) publishing its
// security policy, with the OGSA security services (secsvc) published
// inside it, so that "security mechanisms should not have to be
// instantiated in an application but instead should be supplied by the
// surrounding Grid infrastructure." Bootstrap adds a single-CA trust
// domain around one stack for tests and demos. The requestor side of
// Figure 3 is pkg/gsi's Client.Invoke.
package core

import (
	"time"

	"repro/internal/authz"
	"repro/internal/bridge"
	"repro/internal/ca"
	"repro/internal/gridcert"
	"repro/internal/ogsa"
	"repro/internal/secsvc"
)

// Stack is one host's GSI3 deployment: a hosting environment with the
// standard security services published inside it.
type Stack struct {
	Container *ogsa.Container
	Audit     *secsvc.AuditLog
	Trust     *gridcert.TrustStore

	// The published security services (§4.1).
	CredentialProcessing *secsvc.CredentialProcessing
	Authorization        *secsvc.Authorization
	IdentityMapping      *secsvc.IdentityMapping
}

// newStack builds host's hosting environment, authorizing inbound
// calls with authorizer (nil = authenticate-only), with the security
// services published under their well-known handles:
//
//	security/credential-processing
//	security/authorization (only with an authorizer)
//	security/identity-mapping
//	security/audit
func newStack(name string, host *gridcert.Credential, trust *gridcert.TrustStore, authorizer authz.Engine) (*Stack, error) {
	audit := secsvc.NewAuditLog()
	container, err := ogsa.NewContainer(ogsa.ContainerConfig{
		Name:       name,
		Credential: host,
		TrustStore: trust,
		Authorizer: authorizer,
		Audit:      audit,
	})
	if err != nil {
		return nil, err
	}
	s := &Stack{
		Container:            container,
		Audit:                audit,
		Trust:                trust,
		CredentialProcessing: secsvc.NewCredentialProcessing(trust),
		IdentityMapping:      secsvc.NewIdentityMapping(bridge.NewIdentityMapper()),
	}
	if authorizer != nil {
		s.Authorization = secsvc.NewAuthorization(authorizer)
		container.Publish("security/authorization", s.Authorization)
	}
	container.Publish("security/credential-processing", s.CredentialProcessing)
	container.Publish("security/identity-mapping", s.IdentityMapping)
	container.Publish("security/audit", audit)
	return s, nil
}

// Bootstrap builds a complete single-CA grid test/demo environment: a
// CA, a trust store holding it, a host credential, and a stack.
type Bootstrap struct {
	CA    *ca.Authority
	Trust *gridcert.TrustStore
	Host  *gridcert.Credential
	Stack *Stack
}

// NewBootstrap creates the environment. caName and hostName are DNs like
// "/O=Grid/CN=CA" and "/O=Grid/CN=host cluster".
func NewBootstrap(caName, hostName string, authorizer authz.Engine) (*Bootstrap, error) {
	authority, err := ca.New(gridcert.MustParseName(caName), 365*24*time.Hour, ca.DefaultPolicy())
	if err != nil {
		return nil, err
	}
	trust := gridcert.NewTrustStore()
	if err := trust.AddRoot(authority.Certificate()); err != nil {
		return nil, err
	}
	host, err := authority.NewHostEntity(gridcert.MustParseName(hostName), 30*24*time.Hour)
	if err != nil {
		return nil, err
	}
	stack, err := newStack(hostName, host, trust, authorizer)
	if err != nil {
		return nil, err
	}
	return &Bootstrap{CA: authority, Trust: trust, Host: host, Stack: stack}, nil
}

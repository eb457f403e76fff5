package wssec

import (
	"context"
	"encoding/hex"
	"encoding/xml"
	"errors"
	"fmt"

	"repro/internal/soap"
)

// ActionGetPolicy is the policy-retrieval action: services publish their
// security policy "along with its interface specification" (§4.3), and
// clients fetch it to learn what mechanisms and credentials are required
// before making a secured request.
const ActionGetPolicy = "wspolicy/Get"

// Mechanism names a supported security mechanism.
type Mechanism string

const (
	// MechSecureConversation is stateful WS-SecureConversation.
	MechSecureConversation Mechanism = "wssc"
	// MechMessageSignature is stateless per-message XML-Signature.
	MechMessageSignature Mechanism = "xmldsig"
)

// PolicyDocument is a service's published security policy (a WS-Policy
// analog). It expresses required mechanisms, acceptable trust roots,
// token formats, and other parameters.
type PolicyDocument struct {
	XMLName xml.Name `xml:"Policy"`
	// Service names the endpoint this policy governs.
	Service string `xml:"Service"`
	// Mechanisms the service supports, in preference order.
	Mechanisms []Mechanism `xml:"Mechanisms>Mechanism"`
	// RequireEncryption demands body confidentiality.
	RequireEncryption bool `xml:"RequireEncryption"`
	// AcceptedTokenTypes lists token formats usable with the service
	// (e.g. "gsi:proxy", "cas:assertion", "krb5:ticket").
	AcceptedTokenTypes []string `xml:"AcceptedTokenTypes>Type"`
	// TrustRoots is the hex-encoded fingerprints of CA certificates the
	// service trusts; a client must hold a credential chaining to one.
	TrustRoots []string `xml:"TrustRoots>Fingerprint"`
	// EncryptionKey is the service's hex-encoded X25519 public key for
	// stateless body encryption (empty if unsupported).
	EncryptionKey string `xml:"EncryptionKey,omitempty"`
}

// SetEncryptionKey stores a raw X25519 public key.
func (p *PolicyDocument) SetEncryptionKey(raw []byte) {
	p.EncryptionKey = hex.EncodeToString(raw)
}

// EncryptionKeyBytes decodes the stored key.
func (p *PolicyDocument) EncryptionKeyBytes() ([]byte, error) {
	if p.EncryptionKey == "" {
		return nil, errors.New("wssec: policy has no encryption key")
	}
	return hex.DecodeString(p.EncryptionKey)
}

// Marshal renders the policy as XML.
func (p *PolicyDocument) Marshal() ([]byte, error) {
	return xml.MarshalIndent(p, "", " ")
}

// UnmarshalPolicy parses a policy document.
func UnmarshalPolicy(data []byte) (*PolicyDocument, error) {
	var p PolicyDocument
	if err := xml.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("wssec: policy: %w", err)
	}
	return &p, nil
}

// PublishPolicy installs a policy-retrieval handler on a dispatcher.
func PublishPolicy(d *soap.Dispatcher, p *PolicyDocument) error {
	data, err := p.Marshal()
	if err != nil {
		return err
	}
	d.Handle(ActionGetPolicy, func(env *soap.Envelope) (*soap.Envelope, error) {
		return env.Reply(data), nil
	})
	return nil
}

// FetchPolicy retrieves a service's policy document (Figure 3 step 1);
// the round trip honors ctx.
func FetchPolicy(ctx context.Context, transport ContextTransport) (*PolicyDocument, error) {
	reply, err := transport(ctx, soap.NewEnvelope(ActionGetPolicy, nil))
	if err != nil {
		return nil, err
	}
	return UnmarshalPolicy(reply.Body)
}

// ClientCapabilities describes what a client can do, for intersection
// with a service policy.
type ClientCapabilities struct {
	Mechanisms []Mechanism
	TokenTypes []string
	// TrustRootFingerprints of the CAs that issued the client's
	// credentials (hex).
	TrustRootFingerprints []string
	CanEncrypt            bool
}

// Agreement is the outcome of policy intersection: the mechanism and
// token type both sides support.
type Agreement struct {
	Mechanism Mechanism
	TokenType string
	Encrypt   bool
}

// ErrNoAgreement means the intersection of client capabilities and
// service policy is empty.
var ErrNoAgreement = errors.New("wssec: no common security mechanism or token")

// Intersect computes the agreement between a client and a service policy,
// honouring the service's preference order.
func Intersect(client ClientCapabilities, service *PolicyDocument) (Agreement, error) {
	var ag Agreement
	for _, m := range service.Mechanisms {
		for _, cm := range client.Mechanisms {
			if m == cm {
				ag.Mechanism = m
				break
			}
		}
		if ag.Mechanism != "" {
			break
		}
	}
	if ag.Mechanism == "" {
		return Agreement{}, fmt.Errorf("%w: mechanisms %v vs %v", ErrNoAgreement, client.Mechanisms, service.Mechanisms)
	}
	for _, t := range service.AcceptedTokenTypes {
		for _, ct := range client.TokenTypes {
			if t == ct {
				ag.TokenType = t
				break
			}
		}
		if ag.TokenType != "" {
			break
		}
	}
	if ag.TokenType == "" {
		return Agreement{}, fmt.Errorf("%w: token types %v vs %v", ErrNoAgreement, client.TokenTypes, service.AcceptedTokenTypes)
	}
	// Trust-root compatibility: the client's credential must chain to a
	// root the service accepts (empty service list = accepts any).
	if len(service.TrustRoots) > 0 {
		ok := false
		for _, sr := range service.TrustRoots {
			for _, cr := range client.TrustRootFingerprints {
				if sr == cr {
					ok = true
					break
				}
			}
		}
		if !ok {
			return Agreement{}, fmt.Errorf("%w: no shared trust root", ErrNoAgreement)
		}
	}
	if service.RequireEncryption {
		if !client.CanEncrypt {
			return Agreement{}, fmt.Errorf("%w: service requires encryption", ErrNoAgreement)
		}
		ag.Encrypt = true
	}
	return ag, nil
}

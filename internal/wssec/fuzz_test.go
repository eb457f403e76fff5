package wssec

import (
	"testing"
)

// FuzzUnmarshalPolicy feeds arbitrary bytes to the policy parser, which
// Client.Invoke runs on whatever the target publishes (Figure 3 step
// 1). Parsing must never panic, an accepted document must survive a
// marshal/parse round trip, and intersecting any client with it must
// never panic or agree on a mechanism the document does not list.
func FuzzUnmarshalPolicy(f *testing.F) {
	full, err := (&PolicyDocument{
		Service:            "gram/mmjfs",
		Mechanisms:         []Mechanism{MechSecureConversation, MechMessageSignature},
		RequireEncryption:  true,
		AcceptedTokenTypes: []string{"gsi:proxy", "cas:assertion"},
		TrustRoots:         []string{"00ff"},
		EncryptionKey:      "abcd",
	}).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add([]byte(`<Policy><Mechanisms><Mechanism>xmldsig</Mechanism></Mechanisms></Policy>`))
	f.Add([]byte(`<Policy xmlns="urn:x"><Service>&lt;s&gt;</Service></Policy>`))
	f.Add([]byte(`<Other/>`))
	f.Add([]byte{})

	clients := []ClientCapabilities{
		{},
		{Mechanisms: []Mechanism{MechSecureConversation}, TokenTypes: []string{"gsi:proxy"}, CanEncrypt: true},
		{Mechanisms: []Mechanism{MechMessageSignature}, TokenTypes: []string{"gsi:proxy"}, TrustRootFingerprints: []string{"00ff"}},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalPolicy(data)
		if err != nil {
			return
		}
		again, err := p.Marshal()
		if err != nil {
			t.Fatalf("accepted policy does not marshal: %v", err)
		}
		if _, err := UnmarshalPolicy(again); err != nil {
			t.Fatalf("re-marshaled policy does not parse: %v\n%s", err, again)
		}
		for _, c := range clients {
			ag, err := Intersect(c, p)
			if err != nil {
				continue
			}
			listed := false
			for _, m := range p.Mechanisms {
				listed = listed || m == ag.Mechanism
			}
			if !listed {
				t.Fatalf("agreed on %q, policy lists %v", ag.Mechanism, p.Mechanisms)
			}
		}
	})
}

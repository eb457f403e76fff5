package gridftp

import (
	"bytes"
	"testing"
)

// Fuzz targets for the peer-facing stripe payloads: whatever arrives
// off the wire, the decoders must refuse it or decode it faithfully —
// never panic. Corpora are seeded from valid encodings.

var fuzzToken = bytes.Repeat([]byte{0xA5}, stripeTokenLen)

// FuzzStripeGrant covers the GETS/PUTS grant a client decodes.
func FuzzStripeGrant(f *testing.F) {
	f.Add(encodeStripeGrant(4, 1<<26, fuzzToken))
	f.Add(encodeStripeGrant(1, 0, fuzzToken))
	f.Add(encodeStripeGrant(maxTransferStripes+1, 0, fuzzToken))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		granted, size, token, err := decodeStripeGrant(b)
		if err != nil {
			return
		}
		if granted < 1 || granted > maxTransferStripes || len(token) != stripeTokenLen {
			t.Fatalf("accepted grant of %d stripes, %d-byte token", granted, len(token))
		}
		if !bytes.Equal(encodeStripeGrant(granted, uint64(size), token), b) {
			t.Fatalf("round trip diverged for %x", b)
		}
	})
}

// FuzzJoinPayload covers the JOIN a server decodes on a data connection.
func FuzzJoinPayload(f *testing.F) {
	f.Add(encodeJoin(fuzzToken, 0))
	f.Add(encodeJoin(fuzzToken, 1<<31))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		token, idx, ok := decodeJoin(b)
		if !ok {
			return
		}
		if len(token) != stripeTokenLen {
			t.Fatalf("accepted a %d-byte token", len(token))
		}
		if !bytes.Equal(encodeJoin(token, idx), b) {
			t.Fatalf("round trip diverged for %x", b)
		}
	})
}

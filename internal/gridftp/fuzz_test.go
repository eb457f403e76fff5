package gridftp

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/trace"
)

// Fuzz targets for the peer-facing control protocol and stripe
// payloads: whatever arrives off the wire, the decoders must refuse it
// or decode it faithfully — never panic. Corpora are seeded from valid
// encodings.

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

// FuzzGridFTPCommand covers what a server runs on every inbound control
// message: decodeCmd, splitTrace on its payload, and the verb's payload
// decoder.
func FuzzGridFTPCommand(f *testing.F) {
	sc := trace.SpanContext{TraceID: trace.TraceID{1, 2, 3}, SpanID: trace.SpanID{4, 5}, Flags: trace.FlagSampled}
	for _, c := range []struct {
		verb, path string
		payload    []byte
	}{
		{opGetS, "/data/f", nil},
		{opGetS, "/data/f", sc.Encode(encodeStripeGetReq(4))},
		{opPutS, "/data/f", binary.BigEndian.AppendUint64(nil, 1<<20)},
		{opPutS, "/data/f", sc.Encode(encodeStripePutReq(4, 1<<20))},
		{opJoin, "", sc.Encode(encodeJoin(fuzzToken, 1))},
		{opList, "/", nil},
		{opErr, "/x", []byte("denied")},
	} {
		msg, err := encodeCmd(c.verb, c.path, c.payload)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(msg)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, msg []byte) {
		verb, path, payload, err := decodeCmd(msg)
		if err != nil {
			return
		}
		if !validVerb(verb) {
			t.Fatalf("accepted verb %q", verb)
		}
		if again, err := encodeCmd(verb, path, payload); err != nil || !bytes.Equal(again, msg) {
			t.Fatalf("round trip diverged for %x: %x, %v", msg, again, err)
		}
		rest, sc := splitTrace(verb, payload)
		if !sc.Valid() {
			if !bytes.Equal(rest, payload) {
				t.Fatalf("%s payload %x stripped without a trace context", verb, payload)
			}
		} else if !bytes.Equal(sc.Encode(bytes.Clone(rest)), payload) {
			t.Fatalf("%s payload %x split into %x + %+v", verb, payload, rest, sc)
		}
		switch verb {
		case opGetS:
			if sc.Valid() && !slices.Contains(tracedGetLens, len(rest)) {
				t.Fatalf("GETS trace split left %d bytes", len(rest))
			}
			decodeStripeGetReq(rest)
		case opPutS:
			if sc.Valid() && !slices.Contains(tracedPutLens, len(rest)) {
				t.Fatalf("PUTS trace split left %d bytes", len(rest))
			}
			decodeStripePutReq(rest)
		case opJoin:
			if sc.Valid() && !slices.Contains(tracedJoinLens, len(rest)) {
				t.Fatalf("JOIN trace split left %d bytes", len(rest))
			}
			decodeJoin(rest)
		}
	})
}

package gsi

import (
	"bytes"
	"testing"
)

// Fuzz targets for the GT2 exchange framing: whatever arrives off the
// wire, the decoders must return an error or a faithful decoding —
// never panic. Corpora are seeded from valid encodings.

func FuzzGT2DecodeRequest(f *testing.F) {
	f.Add(gt2EncodeRequest("echo", []byte("payload")))
	f.Add(gt2EncodeRequest("", nil))
	f.Add(gt2EncodeRequest("gsi.__ping", []byte{}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		op, body, err := gt2DecodeRequest(b)
		if err != nil {
			return
		}
		// A successful decode must round-trip exactly.
		if !bytes.Equal(gt2EncodeRequest(op, body), b) {
			t.Fatalf("round trip diverged for %x", b)
		}
	})
}

func FuzzGT2DecodeReply(f *testing.F) {
	f.Add(gt2EncodeReply(gt2StatusOK, []byte("result")))
	f.Add(gt2EncodeReply(gt2StatusUnauthorized, []byte("denied")))
	f.Add(gt2EncodeReply(gt2StatusError, nil))
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, b []byte) {
		status, payload, err := gt2DecodeReply(b)
		if err != nil {
			return
		}
		if !bytes.Equal(gt2EncodeReply(status, payload), b) {
			t.Fatalf("round trip diverged for %x", b)
		}
	})
}

// FuzzStripedOpenBody covers the stream.sopen body a server decodes:
// an accepted body opens a group of 2…maxStripes stripes, or joins one
// with a full token at an index in 1…maxStripes-1.
func FuzzStripedOpenBody(f *testing.F) {
	token := bytes.Repeat([]byte{0x5A}, 16)
	f.Add(encodeStripedOpen(stripedOpen{op: "bulk", n: 4}))
	f.Add(encodeStripedOpen(stripedOpen{op: "bulk", token: token, n: 3}))
	f.Add(encodeStripedOpen(stripedOpen{op: "gsi.__stream.sopen", n: 2}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := decodeStripedOpen(b)
		if err != nil {
			return
		}
		if req.op == "" || req.n < 1 || req.n > maxStripes || (len(req.token) != 0 && len(req.token) != 16) {
			t.Fatalf("accepted %+v", req)
		}
		if !bytes.Equal(encodeStripedOpen(req), b) {
			t.Fatalf("round trip diverged for %x", b)
		}
	})
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/pkg/gsi"
)

// exchangeResource is the resource every facade exchange and stream
// open is authorized against; the action is the op name.
const exchangeResource = "ogsa:gsi.exchange"

// opTimeout bounds any single call, so a hang fails the op instead of
// the whole run.
const opTimeout = 30 * time.Second

// grid is the trust world every workload starts from: one CA, an
// environment trusting it, and a host credential for the servers.
type grid struct {
	ca   *gsi.CA
	env  *gsi.Environment
	host *gsi.Credential
}

func newGrid(name string) (*grid, error) {
	authority, err := gsi.NewCA("/O=Bench/CN="+name+" CA", 24*time.Hour)
	if err != nil {
		return nil, err
	}
	env, err := gsi.NewEnvironment(gsi.WithRoots(authority.Certificate()))
	if err != nil {
		return nil, err
	}
	host, err := authority.NewHostEntity(gsi.MustParseName("/O=Bench/CN=host "+name), 12*time.Hour)
	if err != nil {
		return nil, err
	}
	return &grid{ca: authority, env: env, host: host}, nil
}

// user mints an end-entity credential for dn and the proxy a grid user
// would run with.
func (g *grid) user(dn string) (*gsi.Credential, error) {
	ee, err := g.ca.NewEntity(gsi.MustParseName(dn), 12*time.Hour)
	if err != nil {
		return nil, err
	}
	return gsi.NewProxy(ee, gsi.ProxyOptions{Lifetime: 6 * time.Hour})
}

// users mints n proxies named by format (one %d verb).
func (g *grid) users(format string, n int) ([]*gsi.Credential, error) {
	out := make([]*gsi.Credential, n)
	for i := range out {
		var err error
		if out[i], err = g.user(fmt.Sprintf(format, i)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// traceOpts turns on the program's own tracing, recording every trace,
// when the world is traced.
func traceOpts(b *buildEnv) []gsi.Option {
	if !b.traced() {
		return nil
	}
	return []gsi.Option{gsi.WithTracing(), gsi.WithTraceSampler(gsi.SampleAlways())}
}

// hookServer routes a traced server's spans into the sink.
func hookServer(b *buildEnv, s *gsi.Server) {
	if b.traced() {
		s.Tracer().SetExport(b.sink.hook(-1))
	}
}

// hookClient routes a traced client's own root spans into the sink
// under client c.
func hookClient(b *buildEnv, cl *gsi.Client, c int) {
	if b.traced() {
		cl.Tracer().SetExport(b.sink.hook(c))
	}
}

// payloads generates n seeded payloads of size bytes.
func payloads(seed uint64, stream uint64, n, size int) [][]byte {
	r := rand.New(rand.NewChaCha8(seedBytes(seed, stream)))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		fill(r, out[i])
	}
	return out
}

func fill(r *rand.Rand, b []byte) {
	for i := 0; i < len(b); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8 && i+j < len(b); j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
}

func seedBytes(seed, stream uint64) [32]byte {
	var s [32]byte
	for i := 0; i < 8; i++ {
		s[i] = byte(seed >> (8 * i))
		s[8+i] = byte(stream >> (8 * i))
	}
	return s
}

// checkEcho is the exchange workloads' output check: the reply must be
// the request, byte for byte.
func checkEcho(op string, sent, got []byte) error {
	if bytes.Equal(sent, got) {
		return nil
	}
	i := 0
	for i < len(sent) && i < len(got) && sent[i] == got[i] {
		i++
	}
	return fatal("echo mismatch on %s: sent %d bytes, got %d back, first difference at byte %d", op, len(sent), len(got), i)
}

// echo is the application handler of the exchange workloads.
func echo(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
	return body, nil
}

// opCtx bounds one operation.
func opCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, opTimeout)
}

package main

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"sort"
	"time"

	"repro/internal/gridcrypto"
	"repro/internal/gsitransport"
	"repro/internal/gss"
	"repro/internal/soap"
	"repro/internal/wssec"
	"repro/internal/xmlsec"
	"repro/pkg/gsi"
)

// ladderConfig is what the single-layer measurements need from a
// workload's world: its credentials and trust, the message size its
// operations carry, and its server's authorization pipeline with a
// request that pipeline permits.
type ladderConfig struct {
	env      *gsi.Environment
	user     *gsi.Credential // a client proxy of the workload
	host     *gsi.Credential
	msgSize  int
	pipeline *gsi.AuthorizationPipeline
	resource string
	action   string
	// cold are credentials the pipeline has never decided for, one per
	// cold-decision sample.
	cold []*gsi.Credential
}

// runLadder times each layer on its own, bottom up: AEAD seal+open,
// gss wrap+unwrap, a gsitransport round trip over loopback TCP, the
// three context establishments, chain verification, XML signature
// sign+verify, and cached and cold pipeline decisions. Each rung
// reports the median of several timed batches.
func runLadder(ctx context.Context, lc ladderConfig) (map[string]float64, error) {
	m := map[string]float64{}
	msg := make([]byte, lc.msgSize)
	if _, err := rand.Read(msg); err != nil {
		return nil, err
	}
	trust := lc.env.Trust()
	icfg := gss.Config{Credential: lc.user, TrustStore: trust}
	acfg := gss.Config{Credential: lc.host, TrustStore: trust}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	step := func(name string, scale func(time.Duration) float64, fn func() error) error {
		d, err := timeOp(fn)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m[name] = scale(d)
		return nil
	}

	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		return nil, err
	}
	sealer, err := gridcrypto.NewSealer(key)
	if err != nil {
		return nil, err
	}
	opener, err := gridcrypto.NewOpener(key)
	if err != nil {
		return nil, err
	}
	sealBuf := make([]byte, 0, lc.msgSize+64)
	if err := step("gridcrypto.seal_open_us", us, func() error {
		seq, ct, err := sealer.SealInto(sealBuf[:0], msg, nil)
		if err != nil {
			return err
		}
		_, err = opener.Open(seq, ct, nil)
		return err
	}); err != nil {
		return nil, err
	}

	ictx, actx, err := gss.Establish(icfg, acfg)
	if err != nil {
		return nil, err
	}
	if err := step("gss.wrap_unwrap_us", us, func() error {
		w, err := ictx.Wrap(msg)
		if err != nil {
			return err
		}
		_, err = actx.Unwrap(w)
		return err
	}); err != nil {
		return nil, err
	}

	if err := transportRungs(m, msg, icfg, acfg); err != nil {
		return nil, err
	}

	if err := step("gss.establish_ms", ms, func() error {
		_, _, err := gss.Establish(icfg, acfg)
		return err
	}); err != nil {
		return nil, err
	}

	d := soap.NewDispatcher()
	wssec.NewConversationManager(acfg).Register(d)
	pipe := soap.Pipe(d)
	if err := step("wssec.establish_ms", ms, func() error {
		_, err := wssec.EstablishConversation(icfg, pipe)
		return err
	}); err != nil {
		return nil, err
	}

	if err := step("gridcert.verify_us", us, func() error {
		_, err := trust.Verify(lc.user.Chain, gsi.VerifyOptions{})
		return err
	}); err != nil {
		return nil, err
	}

	if err := step("xmlsec.sign_verify_us", us, func() error {
		env := soap.NewEnvelope("bench", msg)
		if err := xmlsec.SignEnvelope(env, lc.user); err != nil {
			return err
		}
		_, err := xmlsec.VerifyEnvelope(env, xmlsec.VerifyOptions{TrustStore: trust})
		return err
	}); err != nil {
		return nil, err
	}

	peer, err := peerOf(lc.env, lc.user)
	if err != nil {
		return nil, err
	}
	decide := func(p gsi.Peer) (gsi.AuthzDecision, error) {
		d, err := lc.pipeline.Authorize(ctx, p, lc.resource, lc.action)
		if err == nil && d.Decision != gsi.Permit {
			err = fmt.Errorf("pipeline denied %s %s: %s", lc.resource, lc.action, d.Reason)
		}
		return d, err
	}
	if _, err := decide(peer); err != nil {
		return nil, err
	}
	if err := step("authz.decide_cached_us", us, func() error {
		d, err := decide(peer)
		if err == nil && !d.Cached {
			err = errors.New("warm decision missed the cache")
		}
		return err
	}); err != nil {
		return nil, err
	}
	var cold []float64
	for _, cred := range lc.cold {
		p, err := peerOf(lc.env, cred)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		d, err := lc.pipeline.Authorize(ctx, p, lc.resource, lc.action)
		took := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("cold decision: %w", err)
		}
		if d.Cached {
			return nil, errors.New("cold decision came from the cache")
		}
		cold = append(cold, us(took))
	}
	m["authz.decide_cold_us"] = median(cold)
	return m, nil
}

// transportRungs times a sealed round trip and a full handshake over a
// loopback TCP gsitransport connection.
func transportRungs(m map[string]float64, msg []byte, icfg, acfg gss.Config) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			conn, err := gsitransport.Server(raw, acfg)
			if err != nil {
				raw.Close()
				continue
			}
			for {
				in, err := conn.Receive()
				if err != nil {
					break
				}
				if err := conn.Send(in); err != nil {
					break
				}
			}
			conn.Close()
		}
	}()
	defer func() {
		ln.Close()
		<-done
	}()

	conn, err := gsitransport.Dial(ln.Addr().String(), icfg)
	if err != nil {
		return err
	}
	d, err := timeOp(func() error {
		if err := conn.Send(msg); err != nil {
			return err
		}
		out, err := conn.Receive()
		if err == nil && len(out) != len(msg) {
			err = fmt.Errorf("round trip returned %d bytes, sent %d", len(out), len(msg))
		}
		return err
	})
	conn.Close()
	if err != nil {
		return fmt.Errorf("gsitransport.roundtrip_us: %w", err)
	}
	m["gsitransport.roundtrip_us"] = float64(d) / 1e3

	d, err = timeOp(func() error {
		c, err := gsitransport.Dial(ln.Addr().String(), icfg)
		if err != nil {
			return err
		}
		return c.Close()
	})
	if err != nil {
		return fmt.Errorf("gsitransport.handshake_ms: %w", err)
	}
	m["gsitransport.handshake_ms"] = ms(d)
	return nil
}

// timeOp returns the median per-call time of fn over 15 batches, each
// sized from one calibration call to take about 4 ms.
func timeOp(fn func() error) (time.Duration, error) {
	const batches, target = 15, 4 * time.Millisecond
	t0 := time.Now()
	if err := fn(); err != nil {
		return 0, err
	}
	per := max(1, int(target/max(time.Since(t0), time.Microsecond)))
	times := make([]time.Duration, batches)
	for b := range times {
		t := time.Now()
		for i := 0; i < per; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		times[b] = time.Since(t) / time.Duration(per)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[batches/2], nil
}

// peerOf is the authenticated peer a transport would hand the pipeline
// for cred: its chain, verified once.
func peerOf(env *gsi.Environment, cred *gsi.Credential) (gsi.Peer, error) {
	info, err := env.Trust().Verify(cred.Chain, gsi.VerifyOptions{})
	if err != nil {
		return gsi.Peer{}, err
	}
	return gsi.Peer{Identity: info.Identity, Subject: info.Subject, Chain: cred.Chain, Info: info}, nil
}

package gsi

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/cas"
	"repro/internal/ogsa"
)

// Server is the acceptor handle of the redesigned API: a service
// credential bound to an Environment, serving secured exchanges over a
// chosen Transport. The server's authorization pipeline — else the
// environment's authorizer, if any — gates every exchange before the
// handler runs, so the handler sees only authenticated, authorized
// calls: the paper's hosting-environment pipeline as an API shape.
//
//	server, _ := env.NewServer(hostCred, gsi.WithTransport(gsi.TransportGT3()))
//	ep, _ := server.Serve(ctx, "127.0.0.1:0", handler)
//	defer ep.Close()
type Server struct {
	env  *Environment
	cred *Credential
	base settings

	// Control-plane state (PR 6). src lives for the Server's lifetime
	// so metric closures registered into an external registry never
	// dangle; ctrl is the running reloader + metrics listener,
	// refcounted across live endpoints so the goroutine and socket
	// close with the last endpoint's Close.
	mu          sync.Mutex
	src         *serverMetricSources
	metricsDone map[*MetricsRegistry]bool
	ctrl        *serverControl
}

// serverControl is the running control plane behind a server's
// endpoints: one reload watcher and one plaintext metrics listener,
// shared by however many endpoints the server currently serves.
type serverControl struct {
	refs     int
	reloader *Reloader
	httpSrv  *http.Server
	casSync  *casSyncer
}

// NewServer builds a Server handle. A credential is mandatory: GSI
// always authenticates the service side. Pipeline options given here
// (WithLocalPolicy, WithTrustedVO, WithGridMap, WithDecisionCache,
// WithAuditSink) assemble one authorization pipeline shared by every
// endpoint the server opens; WithAuthorizationPipeline adopts a
// prebuilt one instead.
func (e *Environment) NewServer(cred *Credential, opts ...Option) (*Server, error) {
	if cred == nil {
		return nil, opErr("gsi.NewServer", errors.New("gsi: server requires a credential"))
	}
	base := settings{transport: TransportGT2()}
	base, err := base.apply(opts)
	if err != nil {
		return nil, opErr("gsi.NewServer", err)
	}
	if base.authzAdopted && base.authzRev > 0 {
		// Same refusal Serve makes for the per-call combination: a
		// prebuilt pipeline cannot be modified by assembly or tuning
		// options, and dropping them silently would serve under weaker
		// policy than the operator wrote down.
		return nil, opErr("gsi.NewServer", errors.New("gsi: pipeline options cannot modify a prebuilt authorization pipeline; build the variant with Environment.NewAuthorizationPipeline and pass it via WithAuthorizationPipeline"))
	}
	if err := base.materializeDurable(); err != nil {
		return nil, opErr("gsi.NewServer", err)
	}
	if base.durable != nil && base.casPublish != nil {
		// A community server with durable state journals its membership
		// and VO policy through the same log as the local trust plane.
		if err := base.durable.AttachCAS(base.casPublish); err != nil {
			return nil, opErr("gsi.NewServer", err)
		}
	}
	if base.authzEnabled && base.authzPipeline == nil {
		base.authzPipeline = newPipeline(e, base)
	}
	if err := base.buildTracer(); err != nil {
		return nil, opErr("gsi.NewServer", err)
	}
	return &Server{env: e, cred: cred, base: base}, nil
}

// Environment returns the server's environment.
func (s *Server) Environment() *Environment { return s.env }

// AuthorizationPipeline returns the server's policy decision point —
// the pipeline NewServer assembled from enforcement options, or the
// prebuilt one adopted via WithAuthorizationPipeline. Nil when the
// server enforces nothing. The pipeline is live: mutating its policy,
// gridmap, or VO trust set takes effect on the serving hot path
// through the generation counters.
func (s *Server) AuthorizationPipeline() *AuthorizationPipeline { return s.base.authzPipeline }

// Identity returns the server's grid identity.
func (s *Server) Identity() Name { return s.cred.Leaf().Subject }

// Serve starts accepting secured sessions on addr ("host:port";
// ":0"-style addresses pick an ephemeral port — read the dialable form
// from Endpoint.Addr). The endpoint stops when ctx ends or Close is
// called; in-flight handshakes and exchanges abort with the context.
func (s *Server) Serve(ctx context.Context, addr string, h Handler, opts ...Option) (Endpoint, error) {
	const op = "gsi.Server.Serve"
	if h == nil {
		return nil, opErr(op, errors.New("gsi: nil handler"))
	}
	resolved, err := s.base.apply(opts)
	if err != nil {
		return nil, opErr(op, err)
	}
	if resolved.durableDir != s.base.durableDir {
		// Durable state is a handle-lifetime object (one WAL, one set of
		// bound stores); a per-call directory would open a second journal
		// behind the handle's back.
		return nil, opErr(op, errors.New("gsi: WithDurableState is a handle option; pass it to NewServer, not Serve"))
	}
	pipeline := resolved.authzPipeline
	switch {
	case resolved.authzAssemblyDiffers(s.base) && resolved.authzAdopted:
		// Assembly or tuning options combined with an adopted pipeline —
		// whether the adoption came from NewServer or this very call. A
		// prebuilt pipeline's policy lives inside the pipeline object,
		// not in these settings, so "merging" would rebuild an empty
		// deny-all pipeline and silently dropping the options would be
		// just as wrong — refuse loudly instead.
		return nil, opErr(op, errors.New("gsi: per-call pipeline options cannot modify a prebuilt authorization pipeline; build the variant with Environment.NewAuthorizationPipeline and pass it via WithAuthorizationPipeline"))
	case resolved.authzEnabled && resolved.authzAssemblyDiffers(s.base):
		// Assembly options appeared (or changed) per-call on a handle
		// whose pipeline — if any — was assembled from these same
		// settings, so the merged settings fully describe the variant:
		// this endpoint gets a private pipeline (its own decision
		// cache). A per-call WithAuthorizationPipeline without assembly
		// options falls through both cases and replaces the handle's
		// pipeline as-is.
		pipeline = newPipeline(s.env, resolved)
	}
	// Per-call trace options materialize an endpoint-private tracer;
	// otherwise the handle's (possibly nil) tracer serves.
	if err := resolved.buildTracer(); err != nil {
		return nil, opErr(op, err)
	}
	scfg := ServeConfig{
		Context:       resolved.contextConfig(s.env, s.cred),
		Handler:       h,
		StreamHandler: resolved.streamHandler,
		Tracer:        resolved.tracer,
		authorizer:    newServerAuthorizer(s.env, pipeline, resolved.tracer),
	}
	wantCtrl := resolved.metrics != nil || resolved.reloadCfg != nil ||
		resolved.metricsAddr != "" || resolved.adminEnable ||
		resolved.casUpstream != nil || resolved.casPublish != nil
	if wantCtrl {
		if resolved.adminEnable {
			if _, ok := resolved.transport.(gt3Transport); !ok {
				return nil, opErr(op, errors.New("gsi: the admin surface requires the GT3 transport (a hosting container to publish gsi.__admin on)"))
			}
			if scfg.authorizer.mode == authzAuthenticatedOnly {
				return nil, opErr(op, errors.New("gsi: the admin surface requires an authorizing endpoint (configure an authorization pipeline or an environment authorizer); authenticated-only would let any peer command the control plane"))
			}
		}
		if resolved.casPublish != nil {
			if _, ok := resolved.transport.(gt3Transport); !ok {
				return nil, opErr(op, errors.New("gsi: publishing a CAS bundle feed requires the GT3 transport (a hosting container to publish gsi.__cas.sync on)"))
			}
			if pipeline == nil {
				return nil, opErr(op, errors.New("gsi: publishing a CAS bundle feed requires an authorization pipeline (which resource servers may read the VO's roll is policy)"))
			}
		}
		if err := s.acquireControl(resolved, pipeline); err != nil {
			return nil, opErr(op, err)
		}
		scfg.ConfigureContainer = s.containerHook(resolved, pipeline)
	}
	ep, err := resolved.transport.Serve(ctx, addr, scfg)
	if err != nil {
		if wantCtrl {
			s.releaseControl()
		}
		return nil, opErr(op, err)
	}
	if wantCtrl {
		ep = &controlledEndpoint{Endpoint: ep, s: s}
	}
	return ep, nil
}

// sources returns the server's metric-source registry, creating it on
// first use. Never nil after a control-plane Serve; callers from the
// admin path tolerate nil (a server that never served with control
// options).
func (s *Server) sources() *serverMetricSources {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.src == nil {
		s.src = &serverMetricSources{}
	}
	return s.src
}

// DurableState returns the WAL-backed trust plane opened by
// WithDurableState, or nil. Mutate policy and gridmap through its
// objects — every mutation journals before it applies, so a restarted
// server resumes with identical state and generation counters.
func (s *Server) DurableState() *DurableState {
	if s.base.durable != nil {
		return s.base.durable
	}
	if s.base.authzPipeline != nil {
		return s.base.authzPipeline.DurableState()
	}
	return nil
}

// CASSyncStatus snapshots the CAS replication state: the replica's
// applied bundle version and generation plus the syncer's pull history.
// Configured is false while no control-plane endpoint with
// WithCASUpstream is serving.
func (s *Server) CASSyncStatus() CASSyncStatus {
	if cs := s.currentCASSyncer(); cs != nil {
		return cs.status()
	}
	return CASSyncStatus{}
}

// currentCASSyncer returns the live bundle syncer, nil when no control
// plane with WithCASUpstream is running.
func (s *Server) currentCASSyncer() *casSyncer {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctrl == nil {
		return nil
	}
	return s.ctrl.casSync
}

// Reloader returns the live reload watcher started by WithReload, or
// nil while no control-plane endpoint is serving. It lets an operator
// (or a test) force a reload and read per-source health without going
// through the gsi.__admin port type.
func (s *Server) Reloader() *Reloader { return s.currentReloader() }

// currentReloader returns the live reload watcher, nil when no
// control plane with WithReload is running.
func (s *Server) currentReloader() *Reloader {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctrl == nil {
		return nil
	}
	return s.ctrl.reloader
}

// acquireControl brings the control plane up (first endpoint) or joins
// the running one, and lands the server's metric series in the
// registry — once per registry, since re-registering fresh closures
// under the same names is a registration conflict by design.
//
// The control plane is per-server, first-Serve-wins: the reload
// configuration and listener address of the first control-plane Serve
// stay in force until the last such endpoint closes, at which point a
// later Serve may bring it up with new settings.
func (s *Server) acquireControl(resolved settings, pipeline *AuthorizationPipeline) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.src == nil {
		s.src = &serverMetricSources{}
	}
	if resolved.metrics != nil && !s.metricsDone[resolved.metrics] {
		if err := registerServerMetrics(resolved.metrics, metricID(s.cred), pipeline, s.src, resolved.tracer); err != nil {
			return err
		}
		if s.metricsDone == nil {
			s.metricsDone = make(map[*MetricsRegistry]bool)
		}
		s.metricsDone[resolved.metrics] = true
	}
	if s.ctrl == nil {
		ctrl := &serverControl{}
		if resolved.reloadCfg != nil {
			r, err := newReloader(*resolved.reloadCfg, s.env, pipeline)
			if err != nil {
				return err
			}
			ctrl.reloader = r
		}
		if resolved.casUpstream != nil && pipeline != nil {
			if rep := pipeline.Replica(); rep != nil {
				cs, err := newCASSyncer(s.env, s.cred, pipeline, *resolved.casUpstream, resolved.cacheWarmN)
				if err != nil {
					return err
				}
				ctrl.casSync = cs
			}
		}
		if resolved.metricsAddr != "" {
			if resolved.metrics == nil {
				return errors.New("gsi: a metrics listener requires a registry (WithMetrics)")
			}
			lis, err := net.Listen("tcp", resolved.metricsAddr)
			if err != nil {
				return err
			}
			mux := http.NewServeMux()
			mux.Handle("/metrics", resolved.metrics)
			mux.HandleFunc("/healthz", s.serveHealthz)
			// The plaintext listener faces whatever can reach the scrape
			// port: bound header/body reading and slow-client writes so a
			// stuck or hostile scraper cannot pin accept loops open.
			ctrl.httpSrv = &http.Server{
				Addr:              lis.Addr().String(),
				Handler:           mux,
				ReadHeaderTimeout: 5 * time.Second,
				ReadTimeout:       10 * time.Second,
				WriteTimeout:      30 * time.Second,
				IdleTimeout:       2 * time.Minute,
				MaxHeaderBytes:    1 << 16,
			}
			go ctrl.httpSrv.Serve(lis)
		}
		if ctrl.reloader != nil {
			s.src.setReloader(ctrl.reloader)
			ctrl.reloader.start()
		}
		if ctrl.casSync != nil {
			s.src.setCASSyncer(ctrl.casSync)
			ctrl.casSync.start()
		}
		s.ctrl = ctrl
	}
	s.ctrl.refs++
	return nil
}

// releaseControl drops one endpoint's hold on the control plane,
// tearing it down with the last.
func (s *Server) releaseControl() {
	s.mu.Lock()
	ctrl := s.ctrl
	if ctrl == nil {
		s.mu.Unlock()
		return
	}
	ctrl.refs--
	if ctrl.refs > 0 {
		s.mu.Unlock()
		return
	}
	s.ctrl = nil
	s.mu.Unlock()
	if ctrl.reloader != nil {
		ctrl.reloader.close()
	}
	if ctrl.httpSrv != nil {
		ctrl.httpSrv.Close()
	}
	if ctrl.casSync != nil {
		ctrl.casSync.close()
	}
}

// serveHealthz answers the plaintext listener's health probe: 200 while
// every watched configuration file last applied cleanly, 503 naming the
// unhealthy sources otherwise — so a scrape target going "unhealthy"
// after a bad config push is visible to orchestration, not only in the
// reload_failures counter.
func (s *Server) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	if r := s.currentReloader(); r != nil {
		var sick []string
		for _, src := range r.Status() {
			if !src.Healthy {
				sick = append(sick, src.Name+": "+src.Error)
			}
		}
		if len(sick) > 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			for _, line := range sick {
				w.Write([]byte(line + "\n"))
			}
			return
		}
	}
	w.Write([]byte("ok\n"))
}

// containerHook is the GT3 container hook of a control-plane endpoint:
// it folds the endpoint's conversation table into the server's gauges
// and, when WithAdmin is on, publishes the admin port type (Serve has
// already refused an authenticated-only endpoint).
func (s *Server) containerHook(resolved settings, pipeline *AuthorizationPipeline) func(*ogsa.Container) error {
	return func(c *ogsa.Container) error {
		s.sources().addConvMgr(c.ConversationManager())
		if resolved.casPublish != nil {
			// The sync service enforces its own channel rules; route-step
			// authorization (resource "ogsa:gsi.__cas.sync") is the
			// endpoint's seam, which Serve guaranteed is a pipeline. The
			// pipeline also feeds the hot-key export: keys only, never
			// decisions, and reading them is itself an authorized op.
			svc := cas.NewSyncService(resolved.casPublish, resolved.authzAudit)
			svc.SetHotKeySource(pipeline.HotDecisionKeys)
			c.Publish(cas.SyncHandle, svc)
		}
		if !resolved.adminEnable {
			return nil
		}
		backend := &adminBackend{
			server:   s,
			pipeline: pipeline,
			reg:      resolved.metrics,
			pool:     resolved.adminPool,
			tracer:   resolved.tracer,
		}
		_, err := c.EnableAdmin(ogsa.AdminConfig{Backend: backend})
		return err
	}
}

// controlledEndpoint ties the control plane's lifetime to the
// endpoint's: Close releases the server's reload watcher and metrics
// listener along with the transport endpoint (idempotently — Endpoint
// Close may be called more than once).
type controlledEndpoint struct {
	Endpoint
	s    *Server
	once sync.Once
}

func (e *controlledEndpoint) Close() error {
	err := e.Endpoint.Close()
	e.once.Do(e.s.releaseControl)
	return err
}

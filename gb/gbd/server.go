package gbd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"

	"repro/gb"
	"repro/internal/metrics"
)

// TenantHeader names the request header that identifies a client for
// fairness and metrics. Absent or empty means the "anonymous" tenant.
const TenantHeader = "X-GBD-Tenant"

// CacheHeader reports, on /v1/runs responses, whether the cell came from
// the determinism cache ("hit") or was computed ("miss"). The body is
// byte-identical either way.
const CacheHeader = "X-GBD-Cache"

// StatusClientClosed is the non-standard status recorded when a request's
// context was canceled (client disconnect or daemon abort) before the
// response completed. Nothing useful reaches the client; the daemon's
// gbd_requests_canceled_total counter is the observable signal.
const StatusClientClosed = 499

// Options configure a Server. The zero value is usable.
type Options struct {
	// Workers bounds the shared cell pool; <= 0 means GOMAXPROCS.
	Workers int
	// DefaultHorizonS caps each cell's virtual time in seconds when the
	// request does not set horizonS. 0 means unlimited.
	DefaultHorizonS float64
	// MaxCells rejects sweeps whose matrix exceeds it; <= 0 means 4096.
	MaxCells int
	// MaxTenants caps distinct tenant label values; beyond it new tenants
	// are folded into "other" so label cardinality stays bounded.
	// <= 0 means 64.
	MaxTenants int
}

// Server is the gbd service: an http.Handler serving the v1 wire API over
// the gb facade, plus the drain lifecycle cmd/gbd drives. All requests
// share one bounded worker pool (per-tenant round-robin) and one
// determinism cache.
type Server struct {
	opts     Options
	col      *metrics.Collector
	pool     *pool
	poolSize int
	cache    *cache
	mux      *http.ServeMux

	// baseCtx is canceled by Abort; every request context is its child.
	baseCtx context.Context
	abort   context.CancelFunc

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup

	tenantMu sync.Mutex
	tenants  map[string]bool

	canceled  *metrics.Counter
	drainingG *metrics.Gauge
}

// NewServer builds a ready-to-serve Server. Callers own its lifecycle:
// serve it (it is an http.Handler), then Close or Abort it exactly once.
func NewServer(opts Options) *Server {
	if opts.MaxCells <= 0 {
		opts.MaxCells = 4096
	}
	if opts.MaxTenants <= 0 {
		opts.MaxTenants = 64
	}
	col := metrics.New()
	s := &Server{
		opts:    opts,
		col:     col,
		tenants: map[string]bool{},
		canceled: col.Counter("gbd_requests_canceled_total", "requests",
			"requests abandoned before completion (client disconnect or daemon abort)"),
		drainingG: col.Gauge("gbd_draining", "bool",
			"1 while the daemon is draining and rejecting new requests"),
	}
	queued := col.Gauge("gbd_queue_depth", "cells", "cells queued across all tenants, not yet running")
	active := col.Gauge("gbd_active_cells", "cells", "cells executing right now")
	hits := col.Counter("gbd_cache_hits_total", "cells", "cells served from the determinism cache")
	misses := col.Counter("gbd_cache_misses_total", "cells", "cells computed because the cache had no entry")
	s.poolSize = opts.Workers
	if s.poolSize <= 0 {
		s.poolSize = runtime.GOMAXPROCS(0)
	}
	s.pool = newPool(s.poolSize, queued, active)
	s.cache = newCache(hits, misses)
	s.baseCtx, s.abort = context.WithCancel(context.Background())

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/runs", s.handleRun)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweep)
	s.mux.HandleFunc("POST /v1/tune", s.handleTune)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// Collector exposes the daemon's live metrics collector, for embedding
// servers that want to add their own instruments beside the gbd_* set.
func (s *Server) Collector() *metrics.Collector { return s.col }

// ServeHTTP implements http.Handler: it gates draining, binds the request
// context to the daemon's abort context, and dispatches on the v1 mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, errDraining)
		return
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	t := s.tenant(r)
	s.col.Counter(metrics.Label("gbd_requests_total", "tenant", t), "requests",
		"API requests accepted, by tenant").Inc()
	s.mux.ServeHTTP(w, r.WithContext(withTenant(ctx, t)))
}

type tenantKey struct{}

func withTenant(ctx context.Context, t string) context.Context {
	return context.WithValue(ctx, tenantKey{}, t)
}

func tenantOf(ctx context.Context) string {
	if t, ok := ctx.Value(tenantKey{}).(string); ok {
		return t
	}
	return "anonymous"
}

// tenant sanitizes the tenant header into a bounded-cardinality label
// value: restricted alphabet, length-capped, at most MaxTenants distinct
// values before folding into "other".
func (s *Server) tenant(r *http.Request) string {
	raw := r.Header.Get(TenantHeader)
	if raw == "" {
		return "anonymous"
	}
	var b []byte
	for i := 0; i < len(raw) && len(b) < 32; i++ {
		c := raw[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '-', c == '.':
			b = append(b, c)
		}
	}
	if len(b) == 0 {
		return "anonymous"
	}
	t := string(b)
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	if !s.tenants[t] {
		if len(s.tenants) >= s.opts.MaxTenants {
			return "other"
		}
		s.tenants[t] = true
	}
	return t
}

// statusOf maps an error to the v1 wire status.
func statusOf(err error) int {
	switch {
	case errors.Is(err, gb.ErrBadSpec):
		return http.StatusBadRequest
	case errors.Is(err, gb.ErrHorizon):
		return http.StatusUnprocessableEntity
	case errors.Is(err, gb.ErrCanceled), errors.Is(err, context.Canceled):
		return StatusClientClosed
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeError(w http.ResponseWriter, err error) {
	status := statusOf(err)
	body, merr := marshalWire(ErrorResponse{Status: status, Error: err.Error()})
	if merr != nil {
		http.Error(w, err.Error(), status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
	w.Write([]byte("\n"))
}

func writeJSON(w http.ResponseWriter, v any) {
	body, err := marshalWire(v)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
	w.Write([]byte("\n"))
}

// request is a decoded, validated API request: the parsed scenario, its
// canonical key, the effective horizon, and the cell matrix.
type request struct {
	sc         *gb.Scenario
	key        string
	horizonS   float64
	runWorkers int
	cells      []gb.CellKey
}

func badSpec(format string, args ...any) error {
	return fmt.Errorf("%w: %s", gb.ErrBadSpec, fmt.Sprintf(format, args...))
}

// decodeBody decodes a request body of at most 1 MiB into v, rejecting
// unknown fields and trailing data.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badSpec("decoding request: %v", err)
	}
	if dec.More() {
		return badSpec("trailing data after request body")
	}
	return nil
}

// decode parses and validates a RunRequest body.
func (s *Server) decode(r *http.Request) (*request, error) {
	var req RunRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	if len(req.Spec) == 0 {
		return nil, badSpec("request has no spec")
	}
	if req.HorizonS < 0 {
		return nil, badSpec("negative horizonS %g", req.HorizonS)
	}
	if req.RunWorkers < 0 {
		return nil, badSpec("negative runWorkers %d", req.RunWorkers)
	}
	runWorkers := req.RunWorkers
	if runWorkers > s.poolSize {
		runWorkers = s.poolSize
	}
	sc, err := gb.ParseScenario(bytes.NewReader(req.Spec))
	if err != nil {
		return nil, badSpec("spec: %v", err)
	}
	key, err := gb.SpecKey(sc)
	if err != nil {
		return nil, err
	}
	// Bound the matrix before building it: Cells allocates every cell.
	if n := sc.CellCount(); n > s.opts.MaxCells {
		return nil, badSpec("scenario %q has %d cells; this daemon accepts at most %d",
			sc.Name, n, s.opts.MaxCells)
	}
	cells, err := gb.ScenarioCells(sc)
	if err != nil {
		return nil, err
	}
	horizonS := req.HorizonS
	if horizonS == 0 {
		horizonS = s.opts.DefaultHorizonS
	}
	return &request{sc: sc, key: key, horizonS: horizonS, runWorkers: runWorkers, cells: cells}, nil
}

// cellOut is one scheduled cell's outcome, tagged with its matrix index.
type cellOut struct {
	idx   int
	bytes []byte
	hit   bool
	err   error
}

// schedule submits every cell of req to the shared pool under the request
// context. The returned channel is buffered to len(cells): every submitted
// job sends exactly once whatever happens, so abandoning the channel never
// strands a worker and canceling ctx makes the leftover jobs cheap no-ops.
func (s *Server) schedule(ctx context.Context, req *request) (<-chan cellOut, error) {
	tenant := tenantOf(ctx)
	cellsC := s.col.Counter(metrics.Label("gbd_cells_scheduled_total", "tenant", tenant),
		"cells", "sweep cells scheduled on the shared pool, by tenant")
	ch := make(chan cellOut, len(req.cells))
	for i, c := range req.cells {
		i, c := i, c
		err := s.pool.Submit(tenant, func() {
			b, hit, err := s.cache.get(ctx, cellCacheKey(req.key, req.horizonS, c), func() ([]byte, error) {
				var opts []gb.Option
				if req.horizonS > 0 {
					opts = append(opts, gb.WithHorizon(gb.Seconds(req.horizonS)))
				}
				if req.runWorkers > 0 {
					opts = append(opts, gb.WithRunWorkers(req.runWorkers))
				}
				res, err := gb.RunCell(ctx, req.sc, c, opts...)
				if err != nil {
					return nil, err
				}
				return renderCell(c, res)
			})
			ch <- cellOut{idx: i, bytes: b, hit: hit, err: err}
		})
		if err != nil {
			return nil, err
		}
		cellsC.Inc()
	}
	return ch, nil
}

// collect waits for every scheduled cell and returns the rendered bytes in
// matrix order. The first cell error cancels the rest and is returned.
func collect(ctx context.Context, cancel context.CancelFunc, n int, ch <-chan cellOut) ([]json.RawMessage, int, error) {
	out := make([]json.RawMessage, n)
	hits := 0
	for received := 0; received < n; received++ {
		select {
		case o := <-ch:
			if o.err != nil {
				cancel()
				return nil, hits, o.err
			}
			out[o.idx] = o.bytes
			if o.hit {
				hits++
			}
		case <-ctx.Done():
			return nil, hits, fmt.Errorf("gbd: %w", gb.ErrCanceled)
		}
	}
	return out, hits, nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	req, err := s.decode(r)
	if err != nil {
		writeError(w, err)
		return
	}
	if len(req.cells) != 1 {
		writeError(w, badSpec("scenario %q describes %d cells; /v1/runs requires exactly one (use /v1/sweeps)",
			req.sc.Name, len(req.cells)))
		return
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	ch, err := s.schedule(ctx, req)
	if err != nil {
		writeError(w, err)
		return
	}
	out, hits, err := collect(ctx, cancel, 1, ch)
	if err != nil {
		s.countCanceled(err)
		writeError(w, err)
		return
	}
	if hits > 0 {
		w.Header().Set(CacheHeader, "hit")
	} else {
		w.Header().Set(CacheHeader, "miss")
	}
	writeJSON(w, RunResponse{Key: req.key, Name: req.sc.Name, Cell: out[0]})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	req, err := s.decode(r)
	if err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	ch, err := s.schedule(ctx, req)
	if err != nil {
		writeError(w, err)
		return
	}
	if wantsSSE(r) {
		s.streamSweep(ctx, cancel, w, req, ch)
		return
	}
	out, _, err := collect(ctx, cancel, len(req.cells), ch)
	if err != nil {
		s.countCanceled(err)
		writeError(w, err)
		return
	}
	writeJSON(w, SweepResponse{Key: req.key, Name: req.sc.Name, Cells: out})
}

func wantsSSE(r *http.Request) bool {
	for _, accept := range r.Header.Values("Accept") {
		if bytes.Contains([]byte(accept), []byte("text/event-stream")) {
			return true
		}
	}
	return false
}

// streamSweep writes the sweep as Server-Sent Events, one "cell" event per
// finished cell in completion order, then a terminal "done" (or "error")
// event. A client disconnect cancels the remaining cells; the buffered
// result channel means no worker ever blocks on an abandoned stream.
func (s *Server) streamSweep(ctx context.Context, cancel context.CancelFunc, w http.ResponseWriter, req *request, ch <-chan cellOut) {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)

	head, _ := marshalWire(SweepResponse{Key: req.key, Name: req.sc.Name})
	fmt.Fprintf(w, "event: sweep\ndata: %s\n\n", head)
	rc.Flush()

	hits := 0
	for received := 0; received < len(req.cells); received++ {
		select {
		case o := <-ch:
			if o.err != nil {
				cancel()
				s.countCanceled(o.err)
				body, _ := marshalWire(ErrorResponse{Status: statusOf(o.err), Error: o.err.Error()})
				fmt.Fprintf(w, "event: error\ndata: %s\n\n", body)
				rc.Flush()
				return
			}
			if o.hit {
				hits++
			}
			fmt.Fprintf(w, "event: cell\nid: %d\ndata: %s\n\n", o.idx, o.bytes)
			rc.Flush()
		case <-ctx.Done():
			s.canceled.Inc()
			return
		}
	}
	fmt.Fprintf(w, "event: done\ndata: {\"cells\":%d,\"cacheHits\":%d}\n\n", len(req.cells), hits)
	rc.Flush()
}

// countCanceled bumps the canceled counter when err is a cancellation.
func (s *Server) countCanceled(err error) {
	if errors.Is(err, gb.ErrCanceled) || errors.Is(err, context.Canceled) {
		s.canceled.Inc()
	}
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	exps := gb.Experiments()
	resp := ExperimentsResponse{Experiments: make([]ExperimentInfo, 0, len(exps))}
	for _, e := range exps {
		resp.Experiments = append(resp.Experiments, ExperimentInfo{ID: e.ID, Title: e.Title})
	}
	writeJSON(w, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.col.Snapshot().WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// Tenants returns the distinct tenant label values seen so far, sorted —
// an introspection hook for tests and the daemon's shutdown log.
func (s *Server) Tenants() []string {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	out := make([]string, 0, len(s.tenants))
	for t := range s.tenants {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// CachedCells reports how many cell entries the determinism cache holds.
func (s *Server) CachedCells() int { return s.cache.len() }

// Close drains gracefully: new requests are rejected with 503, in-flight
// requests run to completion, then the worker pool shuts down. Safe to
// call once; Abort may follow it to cut a stuck drain short.
func (s *Server) Close() error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.drainingG.Set(1)
	s.inflight.Wait()
	s.pool.Close()
	return nil
}

// Abort cancels every in-flight request's context, then drains. Used when
// the graceful window expires: queued cells become no-ops, running cells
// stop at their next event, and Close's wait terminates promptly.
func (s *Server) Abort() error {
	s.abort()
	return s.Close()
}

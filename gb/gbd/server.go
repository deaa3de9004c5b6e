package gbd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

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
	memo     memo
	mux      *http.ServeMux

	// baseCtx is canceled by Abort; every request context is its child.
	baseCtx context.Context
	abort   context.CancelFunc

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup

	tenantMu  sync.Mutex
	tenants   map[string]*tenant // sanitized header values, at most MaxTenants
	anonymous *tenant            // no usable header; registered on first use
	other     *tenant            // over the cap; registered on first use

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
		tenants: map[string]*tenant{},
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
	t.requests.Inc()
	s.mux.ServeHTTP(w, r.WithContext(context.WithValue(ctx, tenantKey{}, t)))
}

// tenant is one tenant label value with its labelled counters, each
// resolved once, so that a request pays no label formatting or collector
// lookup. Each series appears when it always has: requests at the tenant's
// first request, scheduled cells at its first request that reaches the
// scheduler.
type tenant struct {
	name      string
	requests  *metrics.Counter                // gbd_requests_total{tenant=name}
	scheduled atomic.Pointer[metrics.Counter] // gbd_cells_scheduled_total{tenant=name}
}

type tenantKey struct{}

// tenantOf returns the tenant ServeHTTP bound to ctx.
func (s *Server) tenantOf(ctx context.Context) *tenant {
	if t, ok := ctx.Value(tenantKey{}).(*tenant); ok {
		return t
	}
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	return s.fallback(&s.anonymous, "anonymous")
}

// canonicalTenantHeader is TenantHeader in the form net/http stores header
// keys in, so that reading it does not canonicalize, and allocate, a copy
// per request.
var canonicalTenantHeader = http.CanonicalHeaderKey(TenantHeader)

// tenant sanitizes the tenant header into a bounded-cardinality label
// value: restricted alphabet, length-capped, at most MaxTenants distinct
// values before folding into "other". It sanitizes into a fixed buffer, so
// a tenant seen before costs no allocation.
func (s *Server) tenant(r *http.Request) *tenant {
	raw := r.Header.Get(canonicalTenantHeader)
	var buf [32]byte
	b := buf[:0]
	for i := 0; i < len(raw) && len(b) < len(buf); i++ {
		c := raw[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '-', c == '.':
			b = append(b, c)
		}
	}
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	if len(b) == 0 {
		return s.fallback(&s.anonymous, "anonymous")
	}
	if t := s.tenants[string(b)]; t != nil {
		return t
	}
	if len(s.tenants) >= s.opts.MaxTenants {
		return s.fallback(&s.other, "other")
	}
	t := s.newTenant(string(b))
	s.tenants[t.name] = t
	return t
}

// fallback returns *slot, the anonymous or over-cap tenant, registering it
// on first use. The caller holds tenantMu.
func (s *Server) fallback(slot **tenant, name string) *tenant {
	if *slot == nil {
		*slot = s.newTenant(name)
	}
	return *slot
}

// newTenant registers name's request counter.
func (s *Server) newTenant(name string) *tenant {
	return &tenant{
		name: name,
		requests: s.col.Counter(metrics.Label("gbd_requests_total", "tenant", name), "requests",
			"API requests accepted, by tenant"),
	}
}

// cellsScheduled returns t's scheduled-cells counter, registering it on
// first use. Two requests racing to register it get the same counter.
func (s *Server) cellsScheduled(t *tenant) *metrics.Counter {
	if c := t.scheduled.Load(); c != nil {
		return c
	}
	c := s.col.Counter(metrics.Label("gbd_cells_scheduled_total", "tenant", t.name),
		"cells", "cells of accepted requests, cache hits included, by tenant")
	t.scheduled.Store(c)
	return c
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
	writeBody(w, append(body, '\n'))
}

// writeBody writes a rendered JSON body, trailing newline included.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// request is a decoded, validated API request: the parsed scenario, its
// canonical key, the effective horizon, the cell matrix and each cell's
// cache key. A request is read-only once built: the decode memo shares it
// across concurrent requests with the same body.
type request struct {
	sc         *gb.Scenario
	key        string
	horizonS   float64
	runWorkers int
	cells      []gb.CellKey
	cellKeys   []string
}

// newRequest builds the request for sc's cell matrix, computing the spec
// key and every cell's cache key once.
func newRequest(sc *gb.Scenario, horizonS float64, runWorkers int) (*request, error) {
	key, err := gb.SpecKey(sc)
	if err != nil {
		return nil, err
	}
	cells, err := gb.ScenarioCells(sc)
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = cellCacheKey(key, horizonS, c)
	}
	return &request{sc: sc, key: key, horizonS: horizonS, runWorkers: runWorkers, cells: cells, cellKeys: keys}, nil
}

func badSpec(format string, args ...any) error {
	return fmt.Errorf("%w: %s", gb.ErrBadSpec, fmt.Sprintf(format, args...))
}

// readBody reads a request body of at most 1 MiB.
func readBody(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, 1<<20))
	if err != nil {
		return nil, badSpec("decoding request: %v", err)
	}
	return body, nil
}

// decodeBody decodes a request body of at most 1 MiB into v, rejecting
// unknown fields and trailing data.
func decodeBody(r *http.Request, v any) error {
	body, err := readBody(r)
	if err != nil {
		return err
	}
	return decodeJSON(body, v)
}

// decodeJSON decodes body into v, rejecting unknown fields and trailing
// data. Only white space may follow the object: the decoder must reach
// io.EOF. (Decoder.More would miss a stray '}' or ']', which it reads as
// the end of an enclosing value.)
func decodeJSON(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badSpec("decoding request: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return badSpec("trailing data after request body")
	}
	return nil
}

// decode parses and validates a RunRequest body. A body decoded before is
// answered from the memo, so each distinct body is decoded once.
func (s *Server) decode(r *http.Request) (*request, error) {
	body, err := readBody(r)
	if err != nil {
		return nil, err
	}
	if cached := s.memo.get(body); cached != nil {
		return cached, nil
	}
	var req RunRequest
	if err := decodeJSON(body, &req); err != nil {
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
	// Bound the matrix before building it: Cells allocates every cell.
	if n := sc.CellCount(); n > s.opts.MaxCells {
		return nil, badSpec("scenario %q has %d cells; this daemon accepts at most %d",
			sc.Name, n, s.opts.MaxCells)
	}
	horizonS := req.HorizonS
	if horizonS == 0 {
		horizonS = s.opts.DefaultHorizonS
	}
	out, err := newRequest(sc, horizonS, runWorkers)
	if err != nil {
		return nil, err
	}
	s.memo.put(body, out)
	return out, nil
}

// cellOut is one scheduled cell's outcome, tagged with its matrix index.
type cellOut struct {
	idx   int
	bytes []byte
	hit   bool
	err   error
}

// schedule delivers every cell of req on the returned channel. A cell the
// cache has finished is answered at once, on the caller's goroutine, and
// never waits for a worker; the rest are submitted to the shared pool
// under the request context. The channel is buffered to len(cells): every
// cell sends exactly once whatever happens, so abandoning the channel
// never strands a worker and canceling ctx makes the leftover jobs cheap
// no-ops.
func (s *Server) schedule(ctx context.Context, req *request) (<-chan cellOut, error) {
	t := s.tenantOf(ctx)
	cellsC := s.cellsScheduled(t)
	ch := make(chan cellOut, len(req.cells))
	for i, c := range req.cells {
		key := req.cellKeys[i]
		if e := s.cache.lookup(key); e != nil {
			ch <- cellOut{idx: i, bytes: e.bytes, hit: true, err: e.err}
			cellsC.Inc()
			continue
		}
		err := s.pool.Submit(t.name, func() {
			b, hit, err := s.cache.get(ctx, key, func() ([]byte, error) {
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
func collect(ctx context.Context, cancel context.CancelFunc, n int, ch <-chan cellOut) ([][]byte, int, error) {
	out := make([][]byte, n)
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
	body, err := renderRun(req.key, req.sc.Name, out[0])
	if err != nil {
		writeError(w, err)
		return
	}
	if hits > 0 {
		w.Header().Set(CacheHeader, "hit")
	} else {
		w.Header().Set(CacheHeader, "miss")
	}
	writeBody(w, body)
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
	body, err := renderSweep(req.key, req.sc.Name, out)
	if err != nil {
		writeError(w, err)
		return
	}
	writeBody(w, body)
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

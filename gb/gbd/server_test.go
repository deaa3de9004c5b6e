package gbd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// testSpec is a small, fast sweep: 2 scales × 2 modes × 1 rep = 4 cells.
const testSpec = `{
	"name": "gbd-test",
	"workload": {"kind": "synthetic", "iters": 6, "imageMB": 1},
	"scales": [4, 8],
	"modes": ["GP1", "NORM"],
	"checkpoint": {"intervalS": 2},
	"reps": 1,
	"seed": 7
}`

// oneCellSpec describes exactly one cell, for /v1/runs.
const oneCellSpec = `{
	"name": "gbd-one",
	"workload": {"kind": "synthetic", "iters": 6, "imageMB": 1},
	"scales": [4],
	"modes": ["GP1"],
	"checkpoint": {"intervalS": 2},
	"reps": 1
}`

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(opts)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Abort()
	})
	return s, ts
}

func sweepBody(spec string) string { return fmt.Sprintf(`{"spec":%s}`, spec) }

func post(t *testing.T, url, body string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestErrorStatusTable pins the v1 error contract: each malformed or
// rejected request maps to its documented status code with a JSON body.
func TestErrorStatusTable(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"bad JSON", "POST", "/v1/sweeps", `{not json`, 400},
		{"unknown request field", "POST", "/v1/sweeps", `{"spec":` + testSpec + `,"bogus":1}`, 400},
		{"unknown spec field", "POST", "/v1/sweeps", `{"spec":{"name":"x","bogus":true}}`, 400},
		{"missing spec", "POST", "/v1/sweeps", `{}`, 400},
		{"invalid spec", "POST", "/v1/sweeps", `{"spec":{"name":"x","workload":{"kind":"synthetic"},"scales":[],"checkpoint":{"intervalS":2}}}`, 400},
		{"negative horizon", "POST", "/v1/sweeps", `{"spec":` + testSpec + `,"horizonS":-1}`, 400},
		{"multi-cell run", "POST", "/v1/runs", sweepBody(testSpec), 400},
		{"horizon exceeded", "POST", "/v1/runs", `{"spec":` + oneCellSpec + `,"horizonS":0.001}`, 422},
		{"unknown path", "GET", "/v1/nope", "", 404},
		{"wrong method", "GET", "/v1/sweeps", "", 405},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body := readAll(t, resp)
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.want, body)
			}
			if tc.want == 400 || tc.want == 422 {
				var e ErrorResponse
				if err := json.Unmarshal(body, &e); err != nil {
					t.Fatalf("error body is not ErrorResponse JSON: %v (%s)", err, body)
				}
				if e.Status != tc.want || e.Error == "" {
					t.Fatalf("error body = %+v, want status %d and a message", e, tc.want)
				}
			}
		})
	}
}

// TestTrailingDataRejected: only white space may follow the request
// object. A stray closing bracket, a word or a second object gets a 400 on
// every endpoint that decodes a body, and no rejected body reaches the
// decode memo; a trailing newline is white space and gets a 200.
func TestTrailingDataRejected(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	bodies := map[string]string{
		"/v1/runs":   sweepBody(oneCellSpec),
		"/v1/sweeps": sweepBody(oneCellSpec),
		"/v1/tune":   tuneBody(testTuneSpec),
	}
	for _, path := range []string{"/v1/runs", "/v1/sweeps", "/v1/tune"} {
		for _, tail := range []string{"}", "]", "}]]]", " x", bodies[path]} {
			resp := post(t, ts.URL+path, bodies[path]+tail, nil)
			if got := readAll(t, resp); resp.StatusCode != 400 {
				t.Errorf("%s with %.8q after the request: status %d body %s, want 400", path, tail, resp.StatusCode, got)
			}
		}
	}
	s.memo.mu.Lock()
	n := len(s.memo.m)
	s.memo.mu.Unlock()
	if n != 0 {
		t.Errorf("memo holds %d entries after rejected bodies only", n)
	}
	for _, path := range []string{"/v1/runs", "/v1/sweeps"} {
		resp := post(t, ts.URL+path, bodies[path]+"\n", nil)
		if got := readAll(t, resp); resp.StatusCode != 200 {
			t.Errorf("%s with a trailing newline: status %d body %s, want 200", path, resp.StatusCode, got)
		}
	}
}

// TestMaxCells: a sweep matrix above the daemon's bound is rejected up
// front, before any cell is scheduled.
func TestMaxCells(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxCells: 2})
	resp := post(t, ts.URL+"/v1/sweeps", sweepBody(testSpec), nil)
	body := readAll(t, resp)
	if resp.StatusCode != 400 || !bytes.Contains(body, []byte("at most 2")) {
		t.Fatalf("status = %d body = %s, want 400 mentioning the cap", resp.StatusCode, body)
	}
}

// hugeRepsSpec asks for a matrix far too large to allocate.
var hugeRepsSpec = strings.Replace(oneCellSpec, `"reps": 1`, `"reps": 10000000000000`, 1)

// TestHugeMatrixRejected: a sweep whose matrix is too large to build gets a
// 400 before any cell is allocated, and the daemon keeps serving.
func TestHugeMatrixRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp := post(t, ts.URL+"/v1/sweeps", sweepBody(hugeRepsSpec), nil)
	body := readAll(t, resp)
	if resp.StatusCode != 400 || !bytes.Contains(body, []byte("at most 4096")) {
		t.Fatalf("status = %d body = %s, want 400 mentioning the cap", resp.StatusCode, body)
	}
	resp = post(t, ts.URL+"/v1/runs", sweepBody(oneCellSpec), nil)
	if body := readAll(t, resp); resp.StatusCode != 200 {
		t.Fatalf("daemon stopped serving after the rejection: status %d body %s", resp.StatusCode, body)
	}
}

// TestRunCacheDeterminism: the same one-cell spec posted twice returns
// byte-identical bodies, with the cache header flipping miss -> hit.
func TestRunCacheDeterminism(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	r1 := post(t, ts.URL+"/v1/runs", sweepBody(oneCellSpec), nil)
	b1 := readAll(t, r1)
	r2 := post(t, ts.URL+"/v1/runs", sweepBody(oneCellSpec), nil)
	b2 := readAll(t, r2)
	if r1.StatusCode != 200 || r2.StatusCode != 200 {
		t.Fatalf("statuses %d/%d, want 200/200 (%s)", r1.StatusCode, r2.StatusCode, b1)
	}
	if got := r1.Header.Get(CacheHeader); got != "miss" {
		t.Errorf("first %s = %q, want miss", CacheHeader, got)
	}
	if got := r2.Header.Get(CacheHeader); got != "hit" {
		t.Errorf("second %s = %q, want hit", CacheHeader, got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cached response differs from computed:\n%s\n%s", b1, b2)
	}
	var rr RunResponse
	if err := json.Unmarshal(b1, &rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Key) != 64 || rr.Name != "gbd-one" {
		t.Fatalf("response = %+v, want 64-hex key and spec name", rr)
	}
	var cell WireCell
	if err := json.Unmarshal(rr.Cell, &cell); err != nil {
		t.Fatal(err)
	}
	if cell.Scale != 4 || cell.Mode != "GP1" || cell.ExecSeconds <= 0 || cell.Events == 0 {
		t.Fatalf("cell = %+v, want scale 4 mode GP1 with nonzero figures", cell)
	}
}

// TestSweepJSONMatrixOrder: the non-streaming sweep response lists cells
// in matrix order with coordinates matching the row-major enumeration,
// and a repeat post is byte-identical.
func TestSweepJSONMatrixOrder(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})
	r1 := post(t, ts.URL+"/v1/sweeps", sweepBody(testSpec), nil)
	b1 := readAll(t, r1)
	if r1.StatusCode != 200 {
		t.Fatalf("status = %d body = %s", r1.StatusCode, b1)
	}
	var sr SweepResponse
	if err := json.Unmarshal(b1, &sr); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		scale int
		mode  string
	}{{4, "GP1"}, {4, "NORM"}, {8, "GP1"}, {8, "NORM"}}
	if len(sr.Cells) != len(want) {
		t.Fatalf("got %d cells, want %d", len(sr.Cells), len(want))
	}
	for i, raw := range sr.Cells {
		var c WireCell
		if err := json.Unmarshal(raw, &c); err != nil {
			t.Fatal(err)
		}
		if c.Scale != want[i].scale || c.Mode != want[i].mode {
			t.Errorf("cell %d = %d/%s, want %d/%s", i, c.Scale, c.Mode, want[i].scale, want[i].mode)
		}
	}
	b2 := readAll(t, post(t, ts.URL+"/v1/sweeps", sweepBody(testSpec), nil))
	if !bytes.Equal(b1, b2) {
		t.Fatalf("repeat sweep not byte-identical:\n%s\n%s", b1, b2)
	}
}

// parseSSE reads an SSE stream into (event, id, data) triples.
type sseEvent struct {
	event string
	id    string
	data  string
}

func parseSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var evs []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" {
				evs = append(evs, cur)
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestSweepSSE: the streaming variant frames every cell as an SSE event
// (completion order) and terminates with a done event; the cell payloads
// are exactly the bytes the JSON variant returns.
func TestSweepSSE(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})
	var jr SweepResponse
	if err := json.Unmarshal(readAll(t, post(t, ts.URL+"/v1/sweeps", sweepBody(testSpec), nil)), &jr); err != nil {
		t.Fatal(err)
	}

	resp := post(t, ts.URL+"/v1/sweeps", sweepBody(testSpec), map[string]string{"Accept": "text/event-stream"})
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	evs := parseSSE(t, resp.Body)
	if len(evs) < 2 || evs[0].event != "sweep" || evs[len(evs)-1].event != "done" {
		t.Fatalf("framing = %+v, want sweep ... done", evs)
	}
	cells := map[string]string{}
	for _, e := range evs[1 : len(evs)-1] {
		if e.event != "cell" {
			t.Fatalf("unexpected event %+v", e)
		}
		cells[e.id] = e.data
	}
	if len(cells) != len(jr.Cells) {
		t.Fatalf("streamed %d cells, JSON returned %d", len(cells), len(jr.Cells))
	}
	for i, raw := range jr.Cells {
		if got := cells[fmt.Sprint(i)]; got != string(raw) {
			t.Errorf("cell %d streamed %q, JSON %q", i, got, raw)
		}
	}
	if !strings.Contains(evs[len(evs)-1].data, `"cacheHits":4`) {
		t.Errorf("done event %q, want all 4 cells as cache hits", evs[len(evs)-1].data)
	}
}

// TestSSEDisconnect: a client that walks away mid-sweep cancels the
// remaining cells — the canceled-request counter ticks, workers settle,
// and no goroutine survives. The sole worker is parked on a blocker job
// so the sweep is guaranteed to still be in flight when the client
// disconnects, whatever the machine's speed.
func TestSSEDisconnect(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	release := make(chan struct{})
	if err := s.pool.Submit("blocker", func() { <-release }); err != nil {
		t.Fatal(err)
	}
	defer close(release)

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/sweeps", strings.NewReader(sweepBody(testSpec)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the stream to open (the sweep header event arrives before
	// any cell runs), then vanish with every cell still queued.
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream died before the sweep event: %v", err)
		}
		if strings.HasPrefix(line, "event: sweep") {
			break
		}
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for s.counterValue("gbd_requests_canceled_total") == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.counterValue("gbd_requests_canceled_total"); got == 0 {
		t.Fatal("gbd_requests_canceled_total never ticked after disconnect")
	}
	// Unpark the worker: the abandoned cells drain as canceled no-ops.
	// The pool's worker persists by design; transient request and
	// simulation goroutines must not.
	release <- struct{}{}
	if after := settleGoroutines(before); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// counterValue reads one counter from a live snapshot, 0 if absent.
func (s *Server) counterValue(name string) int64 {
	snap := s.col.Snapshot()
	v, _ := snap.Counter(name)
	return v
}

func settleGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentSweepsByteIdentical is the load test: hundreds of
// concurrent sweep requests across several tenants, every response
// byte-identical, the sweep computed once and served from cache after.
func TestConcurrentSweepsByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 4})
	const clients = 200
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, err := http.NewRequest("POST", ts.URL+"/v1/sweeps", strings.NewReader(sweepBody(testSpec)))
			if err != nil {
				bodies[i] = []byte("ERR " + err.Error())
				return
			}
			req.Header.Set(TenantHeader, fmt.Sprintf("tenant-%d", i%5))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				bodies[i] = []byte("ERR " + err.Error())
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != 200 {
				bodies[i] = []byte(fmt.Sprintf("ERR status %d: %v: %s", resp.StatusCode, err, b))
				return
			}
			bodies[i] = b
		}(i)
	}
	wg.Wait()
	for i, b := range bodies {
		if bytes.HasPrefix(b, []byte("ERR")) {
			t.Fatalf("client %d failed: %s", i, b)
		}
		if !bytes.Equal(b, bodies[0]) {
			t.Fatalf("client %d response differs:\n%s\n%s", i, b, bodies[0])
		}
	}
	// 4 distinct cells exist; everything else must have come from cache.
	if got := s.CachedCells(); got != 4 {
		t.Errorf("cache holds %d cells, want 4", got)
	}
	if misses := s.counterValue("gbd_cache_misses_total"); misses != 4 {
		t.Errorf("gbd_cache_misses_total = %d, want 4 (one per distinct cell)", misses)
	}
	if hits := s.counterValue("gbd_cache_hits_total"); hits != clients*4-4 {
		t.Errorf("gbd_cache_hits_total = %d, want %d", hits, clients*4-4)
	}
}

// TestPoolFairness: with one worker and a deep queue from tenant A, a
// late-arriving tenant B job runs after at most one more A job — round
// robin at cell granularity, not FIFO across the whole queue.
func TestPoolFairness(t *testing.T) {
	col := metrics.New()
	queued := col.Gauge("q", "cells", "t")
	active := col.Gauge("a", "cells", "t")

	var mu sync.Mutex
	var order []string
	gate := make(chan struct{})
	record := func(id string) func() {
		return func() {
			<-gate
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
		}
	}
	p := newPool(1, queued, active)
	for i := 0; i < 8; i++ {
		if err := p.Submit("a", record(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Submit("b", record("b0")); err != nil {
		t.Fatal(err)
	}
	close(gate)
	p.Close()

	pos := -1
	for i, id := range order {
		if id == "b0" {
			pos = i
		}
	}
	if pos < 0 || pos > 2 {
		t.Fatalf("tenant b's only job ran at position %d of %v, want within the first 3", pos, order)
	}
}

// TestPoolDrainRejects: Submit after Close fails with errDraining.
func TestPoolDrainRejects(t *testing.T) {
	col := metrics.New()
	p := newPool(1, col.Gauge("q", "c", "t"), col.Gauge("a", "c", "t"))
	p.Close()
	if err := p.Submit("x", func() {}); err != errDraining {
		t.Fatalf("Submit after Close = %v, want errDraining", err)
	}
}

// TestExperimentsEndpoint: the registry is served in paper order.
func TestExperimentsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var er ExperimentsResponse
	if err := json.Unmarshal(readAll(t, resp), &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Experiments) == 0 {
		t.Fatal("no experiments listed")
	}
	for _, e := range er.Experiments {
		if e.ID == "" || e.Title == "" {
			t.Fatalf("experiment %+v missing id or title", e)
		}
	}
}

// TestMetricsEndpoint: /metrics serves Prometheus text exposition with the
// daemon gauges and per-tenant request counters.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	readAll(t, post(t, ts.URL+"/v1/runs", sweepBody(oneCellSpec),
		map[string]string{TenantHeader: "alice"}))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := string(readAll(t, resp))
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("Content-Type = %q", resp.Header.Get("Content-Type"))
	}
	for _, want := range []string{
		"# TYPE gbd_queue_depth gauge",
		"# TYPE gbd_active_cells gauge",
		"gbd_cache_hits_total",
		"gbd_cache_misses_total 1",
		"gbd_requests_canceled_total 0",
		`gbd_requests_total{tenant="alice"} 1`,
		`gbd_cells_scheduled_total{tenant="alice"} 1`,
		"gbd_draining 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
}

// TestTenantSanitization: hostile or absent tenant headers fold into safe
// bounded label values.
func TestTenantSanitization(t *testing.T) {
	s := NewServer(Options{Workers: 1, MaxTenants: 2})
	defer s.Abort()
	mk := func(h string) *http.Request {
		r := httptest.NewRequest("GET", "/healthz", nil)
		if h != "" {
			r.Header.Set(TenantHeader, h)
		}
		return r
	}
	if got := s.tenant(mk("")).name; got != "anonymous" {
		t.Errorf("empty header -> %q, want anonymous", got)
	}
	if got := s.tenant(mk(`ali"ce}\n{evil`)).name; got != "alicenevil" {
		t.Errorf("hostile header -> %q, want alicenevil", got)
	}
	if got := s.tenant(mk(strings.Repeat("x", 100))).name; len(got) != 32 {
		t.Errorf("long header -> %d chars, want 32", len(got))
	}
	s.tenant(mk("beta")) // second distinct tenant fills the cap
	if got := s.tenant(mk("gamma")).name; got != "other" {
		t.Errorf("over-cap tenant -> %q, want other", got)
	}
}

// TestTenantCountersOnFirstSight: a tenant's counters are resolved once. A
// known tenant's lookup allocates nothing, and each series appears when it
// always has: requests at the tenant's first request, scheduled cells only
// once one of its requests reaches the scheduler.
func TestTenantCountersOnFirstSight(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	r := httptest.NewRequest("GET", "/healthz", nil)
	r.Header.Set(TenantHeader, "alice")
	first := s.tenant(r)
	if n := testing.AllocsPerRun(100, func() {
		if s.tenant(r) != first {
			t.Fatal("a known tenant resolved to a new entry")
		}
	}); n != 0 {
		t.Errorf("resolving a known tenant allocates %.0f times", n)
	}
	post(t, ts.URL+"/v1/runs", `{bad`, map[string]string{TenantHeader: "bob"}).Body.Close()
	post(t, ts.URL+"/v1/runs", sweepBody(oneCellSpec), map[string]string{TenantHeader: "carol"}).Body.Close()
	post(t, ts.URL+"/v1/runs", sweepBody(oneCellSpec), map[string]string{TenantHeader: "carol"}).Body.Close()
	snap := s.Collector().Snapshot()
	for name, want := range map[string]int64{
		`gbd_requests_total{tenant="bob"}`:          1,
		`gbd_requests_total{tenant="carol"}`:        2,
		`gbd_cells_scheduled_total{tenant="carol"}`: 2,
	} {
		if got, ok := snap.Counter(name); !ok || got != want {
			t.Errorf("%s = %d (registered %v), want %d", name, got, ok, want)
		}
	}
	if _, ok := snap.Counter(`gbd_cells_scheduled_total{tenant="bob"}`); ok {
		t.Error("bob's scheduled-cells series registered, though none of bob's requests was scheduled")
	}
}

// TestGracefulDrain: Close rejects new requests with 503, finishes
// in-flight ones, stops the pool workers, and leaks nothing.
func TestGracefulDrain(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewServer(Options{Workers: 2})
	ts := httptest.NewServer(s)

	// One request in flight while we drain.
	started := make(chan []byte, 1)
	go func() {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/runs", strings.NewReader(sweepBody(oneCellSpec)))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			started <- []byte("ERR " + err.Error())
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			started <- []byte(fmt.Sprintf("ERR %d %s", resp.StatusCode, b))
			return
		}
		started <- b
	}()
	time.Sleep(10 * time.Millisecond) // let it reach the pool

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if b := <-started; bytes.HasPrefix(b, []byte("ERR")) {
		t.Fatalf("in-flight request failed during drain: %s", b)
	}

	resp := post(t, ts.URL+"/v1/runs", sweepBody(oneCellSpec), nil)
	body := readAll(t, resp)
	if resp.StatusCode != 503 {
		t.Fatalf("post-drain status = %d body = %s, want 503", resp.StatusCode, body)
	}
	ts.Close()
	if after := settleGoroutines(before); after > before {
		t.Fatalf("goroutines leaked after drain: %d before, %d after", before, after)
	}
}

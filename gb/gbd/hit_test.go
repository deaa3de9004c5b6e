package gbd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/gb"
	"repro/internal/metrics"
)

// TestCachedRequestsSkipPool: a request whose cells are all cached is
// answered while the only worker is held by a blocker job — as a JSON
// sweep, as an SSE sweep and on /v1/runs — with the bytes of its cold
// response and without computing anything again.
func TestCachedRequestsSkipPool(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	coldSweep := readAll(t, post(t, ts.URL+"/v1/sweeps", sweepBody(testSpec), nil))
	coldRun := readAll(t, post(t, ts.URL+"/v1/runs", sweepBody(oneCellSpec), nil))
	misses := s.counterValue("gbd_cache_misses_total")

	release := make(chan struct{})
	if err := s.pool.Submit("blocker", func() { <-release }); err != nil {
		t.Fatal(err)
	}
	defer close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	postBusy := func(path, body, accept string) []byte {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST %s while the only worker is busy: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatalf("POST %s while the only worker is busy: reading the body: %v", path, err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("POST %s: status %d body %s", path, resp.StatusCode, buf.Bytes())
		}
		return buf.Bytes()
	}

	if got := postBusy("/v1/sweeps", sweepBody(testSpec), ""); !bytes.Equal(got, coldSweep) {
		t.Errorf("cached JSON sweep differs from the cold one:\n%s\n%s", got, coldSweep)
	}
	if got := postBusy("/v1/runs", sweepBody(oneCellSpec), ""); !bytes.Equal(got, coldRun) {
		t.Errorf("cached run differs from the cold one:\n%s\n%s", got, coldRun)
	}
	var cold SweepResponse
	if err := json.Unmarshal(coldSweep, &cold); err != nil {
		t.Fatal(err)
	}
	evs := parseSSE(t, bytes.NewReader(postBusy("/v1/sweeps", sweepBody(testSpec), "text/event-stream")))
	if len(evs) != len(cold.Cells)+2 || evs[0].event != "sweep" || evs[len(evs)-1].event != "done" {
		t.Fatalf("SSE framing = %+v, want sweep, %d cells, done", evs, len(cold.Cells))
	}
	for _, e := range evs[1 : len(evs)-1] {
		var i int
		if _, err := fmt.Sscan(e.id, &i); err != nil || e.event != "cell" || i < 0 || i >= len(cold.Cells) {
			t.Fatalf("unexpected SSE event %+v", e)
		}
		if e.data != string(cold.Cells[i]) {
			t.Errorf("SSE cell %d = %s, want %s", i, e.data, cold.Cells[i])
		}
	}
	if got := s.counterValue("gbd_cache_misses_total"); got != misses {
		t.Errorf("gbd_cache_misses_total = %d after cached requests, want %d", got, misses)
	}
}

// TestCacheLookup: lookup answers only finished, representative entries
// and counts exactly those as hits.
func TestCacheLookup(t *testing.T) {
	col := metrics.New()
	c := newCache(col.Counter("hits", "cells", "t"), col.Counter("misses", "cells", "t"))
	finished := func(b []byte, err error) *centry {
		e := &centry{done: make(chan struct{}), bytes: b, err: err}
		close(e.done)
		return e
	}
	c.m["ok"] = finished([]byte(`{}`), nil)
	c.m["horizon"] = finished(nil, gb.ErrHorizon)
	c.m["canceled"] = finished(nil, fmt.Errorf("gbd: %w", gb.ErrCanceled))
	c.m["running"] = &centry{done: make(chan struct{})}

	for key, want := range map[string]bool{
		"ok": true, "horizon": true, "canceled": false, "running": false, "absent": false,
	} {
		if got := c.lookup(key) != nil; got != want {
			t.Errorf("lookup(%q) found = %v, want %v", key, got, want)
		}
	}
	if got := c.hits.Value(); got != 2 {
		t.Errorf("hits = %d, want 2", got)
	}
}

// escapedName needs every kind of JSON escaping the wire encoder does.
const escapedName = "q\"b\\s<a&b>\u2028"

// renamed returns spec with its name replaced by escapedName.
func renamed(t *testing.T, spec, name string) string {
	t.Helper()
	quoted, err := json.Marshal(escapedName)
	if err != nil {
		t.Fatal(err)
	}
	old := fmt.Sprintf(`"name": %q`, name)
	if !strings.Contains(spec, old) {
		t.Fatalf("spec has no %s", old)
	}
	return strings.Replace(spec, old, `"name": `+string(quoted), 1)
}

// TestSplicedBodies: the /v1/sweeps and /v1/runs bodies, which splice
// cached cell bytes into a marshalWire head, equal marshalWire of the whole
// response plus a newline, cold and warm, for a name that needs escaping.
func TestSplicedBodies(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	specKey := func(spec string) string {
		sc, err := gb.ParseScenario(strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		key, err := gb.SpecKey(sc)
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	wire := func(v any) []byte {
		b, err := marshalWire(v)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}

	sweep := renamed(t, testSpec, "gbd-test")
	for _, pass := range []string{"cold", "warm"} {
		got := readAll(t, post(t, ts.URL+"/v1/sweeps", sweepBody(sweep), nil))
		var sr SweepResponse
		if err := json.Unmarshal(got, &sr); err != nil {
			t.Fatalf("%s sweep: %v (%s)", pass, err, got)
		}
		want := wire(SweepResponse{Key: specKey(sweep), Name: escapedName, Cells: sr.Cells})
		if len(sr.Cells) != 4 || !bytes.Equal(got, want) {
			t.Errorf("%s sweep body:\n%s\nwant\n%s", pass, got, want)
		}
	}

	run := renamed(t, oneCellSpec, "gbd-one")
	for _, pass := range []string{"cold", "warm"} {
		got := readAll(t, post(t, ts.URL+"/v1/runs", sweepBody(run), nil))
		var rr RunResponse
		if err := json.Unmarshal(got, &rr); err != nil {
			t.Fatalf("%s run: %v (%s)", pass, err, got)
		}
		want := wire(RunResponse{Key: specKey(run), Name: escapedName, Cell: rr.Cell})
		if len(rr.Cell) == 0 || !bytes.Equal(got, want) {
			t.Errorf("%s run body:\n%s\nwant\n%s", pass, got, want)
		}
	}
}

// TestDecodeMemo: the decode memo stays within memoCap, a body cleared out
// of it decodes again to the same response, and rejected bodies are never
// stored.
func TestDecodeMemo(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	memoLen := func() int {
		s.memo.mu.Lock()
		defer s.memo.mu.Unlock()
		return len(s.memo.m)
	}
	// memoCap+1 distinct bodies of one request: only the padding differs.
	body := func(i int) string { return `{"spec":` + oneCellSpec + strings.Repeat(" ", i) + `}` }
	first := readAll(t, post(t, ts.URL+"/v1/runs", body(0), nil))
	for i := 1; i <= memoCap; i++ {
		resp := post(t, ts.URL+"/v1/runs", body(i), nil)
		if got := readAll(t, resp); resp.StatusCode != 200 || !bytes.Equal(got, first) {
			t.Fatalf("body %d: status %d\n%s\nwant\n%s", i, resp.StatusCode, got, first)
		}
		if n := memoLen(); n > memoCap {
			t.Fatalf("memo holds %d entries after %d bodies, cap %d", n, i+1, memoCap)
		}
	}
	if s.memo.get([]byte(body(0))) != nil {
		t.Fatal("the first body is still memoized after memoCap more")
	}
	if got := readAll(t, post(t, ts.URL+"/v1/runs", body(0), nil)); !bytes.Equal(got, first) {
		t.Fatalf("body cleared from the memo answered\n%s\nwant\n%s", got, first)
	}

	n := memoLen()
	for _, bad := range []string{
		`{not json`,
		`{"spec":{"name":"x","bogus":true}}`,
		`{"spec":` + oneCellSpec + `,"horizonS":-1}`,
		sweepBody(hugeRepsSpec),
	} {
		for range 2 {
			resp := post(t, ts.URL+"/v1/runs", bad, nil)
			if got := readAll(t, resp); resp.StatusCode != 400 {
				t.Fatalf("%s: status %d body %s, want 400", bad, resp.StatusCode, got)
			}
		}
	}
	if got := memoLen(); got != n {
		t.Fatalf("memo holds %d entries after rejected bodies, want %d", got, n)
	}
}

// BenchmarkSweepHit serves a fully cached testSpec sweep through ServeHTTP
// into a recorder: the daemon's cost per request when nothing is computed.
func BenchmarkSweepHit(b *testing.B) {
	s := NewServer(Options{Workers: 2})
	defer s.Close()
	body := []byte(sweepBody(testSpec))
	serveSweep(b, s, body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveSweep(b, s, body)
	}
}

// BenchmarkSweepCold serves the same sweep from a fresh server each
// iteration, so every cell is computed on the pool.
func BenchmarkSweepCold(b *testing.B) {
	body := []byte(sweepBody(testSpec))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewServer(Options{Workers: 2})
		serveSweep(b, s, body)
		s.Close()
	}
}

func serveSweep(b *testing.B, s *Server, body []byte) {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("POST", "/v1/sweeps", bytes.NewReader(body)))
	if w.Code != 200 {
		b.Fatalf("status %d body %s", w.Code, w.Body.Bytes())
	}
}

package gbd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/gb"
	"repro/internal/tune"
)

// testTuneSpec is a small but real search: 2 modes × 2 intervals = 4
// candidates over a 2-rung ladder, every cell a full simulation.
const testTuneSpec = `{
	"scenario": {
		"name": "gbd-tune",
		"workload": {"kind": "synthetic", "iters": 6, "imageMB": 1},
		"modes": ["GP1"],
		"checkpoint": {"intervalS": 2},
		"seed": 7
	},
	"objective": "makespan",
	"modes": ["GP1", "NORM"],
	"intervalsS": [1, 2],
	"rungs": [{"scale": 4}, {"scale": 8}],
	"eta": 2
}`

func tuneBody(spec string) string { return fmt.Sprintf(`{"spec":%s}`, spec) }

// TestTuneEndpointParity: the daemon's report must equal the in-process
// gb.Tune report for the same spec — the library/service parity contract.
// Both paths score from the same cell arithmetic, and the wire report's
// float64 fields roundtrip JSON exactly, so the re-rendered reports are
// byte-identical.
func TestTuneEndpointParity(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})
	resp := post(t, ts.URL+"/v1/tune", tuneBody(testTuneSpec), nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d (body %s)", resp.StatusCode, readAll(t, resp))
	}
	var tr TuneResponse
	if err := json.Unmarshal(readAll(t, resp), &tr); err != nil {
		t.Fatal(err)
	}

	spec, err := gb.ParseTuneSpec(strings.NewReader(testTuneSpec))
	if err != nil {
		t.Fatal(err)
	}
	wantKey, err := gb.TuneSpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Key != wantKey || tr.Name != "gbd-tune" {
		t.Fatalf("head = key %q name %q, want key %q name gbd-tune", tr.Key, tr.Name, wantKey)
	}

	local, err := gb.Tune(context.Background(), spec)
	if err != nil {
		t.Fatalf("gb.Tune: %v", err)
	}
	var served tune.Report
	if err := json.Unmarshal(tr.Report, &served); err != nil {
		t.Fatalf("report is not a TuneReport: %v", err)
	}
	lj, err := local.JSON()
	if err != nil {
		t.Fatal(err)
	}
	sj, err := served.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lj, sj) {
		t.Errorf("served report differs from in-process report:\n--- gbd ---\n%s\n--- gb.Tune ---\n%s", sj, lj)
	}
	if served.Text() != local.Text() {
		t.Error("served report Text() differs from in-process Text()")
	}
}

// TestTuneCacheDeterminism: repeating a tune request returns byte-identical
// bodies, with the second search's cells served from the daemon's cell
// cache (shared with /v1/sweeps entries of the same spec+horizon+cell).
func TestTuneCacheDeterminism(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 4})
	first := readAll(t, post(t, ts.URL+"/v1/tune", tuneBody(testTuneSpec), nil))
	computed := s.counterValue("gbd_cache_misses_total")
	second := readAll(t, post(t, ts.URL+"/v1/tune", tuneBody(testTuneSpec), nil))
	if !bytes.Equal(first, second) {
		t.Errorf("repeated tune differs:\n%s\n%s", first, second)
	}
	if after := s.counterValue("gbd_cache_misses_total"); after != computed {
		t.Errorf("second tune computed %d new cells, want 0 (cache)", after-computed)
	}
	if s.counterValue("tune_cells_total") == 0 {
		t.Error("tune_cells_total never ticked")
	}
	if s.counterValue("tune_rungs_total") == 0 {
		t.Error("tune_rungs_total never ticked")
	}
}

// TestTuneSSE: the streaming variant frames a tune head, one rung event
// per ladder level (id = rung index, in order), and a done event whose
// report is exactly the JSON variant's.
func TestTuneSSE(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})
	var jr TuneResponse
	if err := json.Unmarshal(readAll(t, post(t, ts.URL+"/v1/tune", tuneBody(testTuneSpec), nil)), &jr); err != nil {
		t.Fatal(err)
	}

	resp := post(t, ts.URL+"/v1/tune", tuneBody(testTuneSpec), map[string]string{"Accept": "text/event-stream"})
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	evs := parseSSE(t, resp.Body)
	if len(evs) < 3 || evs[0].event != "tune" || evs[len(evs)-1].event != "done" {
		t.Fatalf("framing = %+v, want tune, rungs..., done", evs)
	}
	var head TuneResponse
	if err := json.Unmarshal([]byte(evs[0].data), &head); err != nil {
		t.Fatal(err)
	}
	if head.Key != jr.Key || head.Name != jr.Name {
		t.Errorf("head = %+v, want key %q name %q", head, jr.Key, jr.Name)
	}
	rungs := evs[1 : len(evs)-1]
	for i, e := range rungs {
		if e.event != "rung" || e.id != fmt.Sprint(i) {
			t.Fatalf("rung %d framed as %+v", i, e)
		}
		var rr tune.RungReport
		if err := json.Unmarshal([]byte(e.data), &rr); err != nil {
			t.Fatalf("rung %d payload: %v", i, err)
		}
		if rr.Rung != i {
			t.Errorf("rung event %d carries rung %d", i, rr.Rung)
		}
	}
	if len(rungs) != 2 {
		t.Errorf("streamed %d rungs, want 2", len(rungs))
	}
	var done TuneResponse
	if err := json.Unmarshal([]byte(evs[len(evs)-1].data), &done); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(done.Report, jr.Report) {
		t.Errorf("SSE done report differs from JSON report:\n%s\n%s", done.Report, jr.Report)
	}
}

// TestTuneErrorTable pins the /v1/tune error contract.
func TestTuneErrorTable(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, MaxCells: 6})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad JSON", `{not json`, 400},
		{"missing spec", `{}`, 400},
		{"unknown request field", `{"spec":` + testTuneSpec + `,"bogus":1}`, 400},
		{"unknown spec field", `{"spec":{"scenario":{"name":"x"},"bogus":true,"rungs":[{"scale":4}]}}`, 400},
		{"invalid spec", `{"spec":{"scenario":{"name":"x","workload":{"kind":"synthetic","iters":6}},"objective":"nope","rungs":[{"scale":4}]}}`, 400},
		{"over max cells", tuneBody(testTuneSpec), 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := post(t, ts.URL+"/v1/tune", tc.body, nil)
			body := readAll(t, resp)
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.want, body)
			}
			var e ErrorResponse
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("error body is not ErrorResponse JSON: %v (%s)", err, body)
			}
			if e.Status != tc.want || e.Error == "" {
				t.Fatalf("error body = %+v, want status %d and a message", e, tc.want)
			}
		})
	}
}

// overflowTuneSpec plans 9 candidates × 1024819115206086201 reps on its
// first rung: more cells than an int holds.
const overflowTuneSpec = `{
	"scenario": {
		"name": "overflow",
		"workload": {"kind": "synthetic", "iters": 6, "imageMB": 1},
		"modes": ["GP1"],
		"checkpoint": {"intervalS": 2}
	},
	"modes": ["GP1", "GP4", "NORM"],
	"intervalsS": [1, 2, 3],
	"rungs": [{"scale": 4, "reps": 1024819115206086201}, {"scale": 8}]
}`

// TestTuneCrashRequestsRejected: requests that once crashed the daemon — a
// cell plan overflowing int, a negative seeded interval grid — get a 400,
// and the daemon keeps serving.
func TestTuneCrashRequestsRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	negativeGrid := `{
		"scenario": {
			"name": "grid",
			"workload": {"kind": "synthetic", "iters": 6, "imageMB": 1},
			"failures": {"process": "poisson", "mtbfS": 3}
		},
		"intervalCount": -3,
		"rungs": [{"scale": 4}]
	}`
	for _, spec := range []string{overflowTuneSpec, negativeGrid} {
		resp := post(t, ts.URL+"/v1/tune", tuneBody(spec), nil)
		if body := readAll(t, resp); resp.StatusCode != 400 {
			t.Fatalf("status = %d body = %s, want 400", resp.StatusCode, body)
		}
	}
	resp := post(t, ts.URL+"/v1/runs", sweepBody(oneCellSpec), nil)
	if body := readAll(t, resp); resp.StatusCode != 200 {
		t.Fatalf("daemon stopped serving after the rejections: status %d body %s", resp.StatusCode, body)
	}
}

// TestTuneDrainRejects: a draining daemon turns away new tune work with
// 503, like any sweep.
func TestTuneDrainRejects(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	s.pool.Close()
	resp := post(t, ts.URL+"/v1/tune", tuneBody(testTuneSpec), nil)
	body := readAll(t, resp)
	if resp.StatusCode != 503 {
		t.Fatalf("status = %d, want 503 (body %s)", resp.StatusCode, body)
	}
}

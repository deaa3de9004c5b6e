// Package gbd is the simulation service layer behind cmd/gbd: a
// long-running, multi-tenant daemon serving the gb facade over a
// versioned HTTP/JSON wire API.
//
// The v1 contract (see API.md for the full reference):
//
//	POST /v1/runs        one-cell scenario -> RunResponse
//	POST /v1/sweeps      scenario matrix   -> SweepResponse, or SSE stream
//	GET  /v1/experiments reproduction registry -> ExperimentsResponse
//	GET  /metrics        Prometheus text exposition
//	GET  /healthz        liveness (503 while draining)
//
// Every cell result is fully determined by the canonical spec and the
// cell's derived seed, so the daemon caches rendered cell bytes forever
// and serves cached and computed responses byte-identically. Cells that
// must be computed share one bounded worker pool with per-tenant
// round-robin fairness; cached cells are answered without it.
package gbd

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/gb"
	"repro/internal/scenario"
)

// RunRequest is the body of POST /v1/runs and POST /v1/sweeps: a scenario
// spec (the same schema LoadScenario reads) plus optional service knobs.
type RunRequest struct {
	// Spec is the scenario to run, verbatim. /v1/runs requires a spec
	// describing exactly one cell (one scale, one mode, reps 1).
	Spec json.RawMessage `json:"spec"`
	// HorizonS caps each cell's virtual time in seconds. 0 inherits the
	// daemon's default horizon; negative is rejected.
	HorizonS float64 `json:"horizonS,omitempty"`
	// RunWorkers sets how many threads each cell's simulation may use for
	// its own event loop (gb.WithRunWorkers). 0 means serial; negative is
	// rejected; values above the daemon's pool size are capped to it.
	// Cell results are byte-identical at every worker count, so this knob
	// changes wall-clock time only and is not part of the cache key.
	RunWorkers int `json:"runWorkers,omitempty"`
}

// WireCell is one finished cell on the wire: the shared cell summary,
// gb.CellSummary. Rendered once at compute time and cached as bytes, so
// cached and freshly computed responses are byte-identical by
// construction.
type WireCell = gb.CellSummary

// RunResponse is the body of a successful POST /v1/runs.
type RunResponse struct {
	// Key is the scenario's SpecKey: hex SHA-256 of the canonical spec.
	Key string `json:"key"`
	// Name is the scenario name.
	Name string `json:"name"`
	// Cell is the run's WireCell, verbatim from the cache.
	Cell json.RawMessage `json:"cell"`
}

// SweepResponse is the body of a successful non-streaming POST /v1/sweeps:
// every cell of the matrix in row-major (matrix) order, regardless of the
// order they completed in.
type SweepResponse struct {
	Key   string            `json:"key"`
	Name  string            `json:"name"`
	Cells []json.RawMessage `json:"cells"`
}

// ErrorResponse is the body of every non-2xx API response.
type ErrorResponse struct {
	Status int    `json:"status"`
	Error  string `json:"error"`
}

// ExperimentInfo is one registered paper reproduction.
type ExperimentInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// ExperimentsResponse is the body of GET /v1/experiments, in paper order.
type ExperimentsResponse struct {
	Experiments []ExperimentInfo `json:"experiments"`
}

// marshalWire encodes v the way every wire body is encoded: compact JSON,
// no HTML escaping, no trailing newline. One encoder configuration
// everywhere is what makes "byte-identical" a checkable property.
func marshalWire(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

// renderCell converts one finished cell into its wire bytes.
func renderCell(c gb.CellKey, res *gb.Result) ([]byte, error) {
	b, err := marshalWire(scenario.Summarize(c, res))
	if err != nil {
		return nil, fmt.Errorf("gbd: render cell %d/%s/%d: %w", c.Scale, c.Mode, c.Rep, err)
	}
	return b, nil
}

// renderRun renders RunResponse{key, name, cell} and its trailing newline,
// splicing the cached cell bytes in verbatim. Those bytes are already
// marshalWire output, compact and unescaped, so encoding them again as a
// json.RawMessage would only re-scan them into the same bytes.
func renderRun(key, name string, cell []byte) ([]byte, error) {
	head, err := wireHead(RunResponse{Key: key, Name: name})
	if err != nil {
		return nil, err
	}
	return append(append(head, cell...), "}\n"...), nil
}

// renderSweep renders SweepResponse{key, name, cells} and its trailing
// newline the way renderRun does, the cells spliced into the array.
func renderSweep(key, name string, cells [][]byte) ([]byte, error) {
	head, err := wireHead(SweepResponse{Key: key, Name: name})
	if err != nil {
		return nil, err
	}
	n := len(head) + 3
	for _, c := range cells {
		n += len(c) + 1
	}
	b := append(make([]byte, 0, n), head...)
	b = append(b, '[')
	for i, c := range cells {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, c...)
	}
	return append(b, "]}\n"...), nil
}

// wireHead encodes v, a response whose last field is nil, up to where that
// field's value begins: marshalWire's output without the closing "null}".
func wireHead(v any) ([]byte, error) {
	b, err := marshalWire(v)
	if err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(b, []byte("null}")), nil
}

// cellCacheKey is the determinism cache key for one cell: the canonical
// spec key, the effective horizon (a horizon event changes the wire
// output), and the cell coordinates. The seed is implied by the spec and
// coordinates, so it adds nothing.
func cellCacheKey(specKey string, horizonS float64, c gb.CellKey) string {
	return fmt.Sprintf("%s|h%g|%d/%s/%d", specKey, horizonS, c.Scale, c.Mode, c.Rep)
}

package gbd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/gb"
	"repro/internal/tune"
)

// TuneRequest is the body of POST /v1/tune: a tune spec (the same schema
// gb.LoadTuneSpec reads — a base scenario plus the candidate grid and rung
// ladder).
type TuneRequest struct {
	Spec json.RawMessage `json:"spec"`
}

// TuneResponse is the body of a successful POST /v1/tune (and of the SSE
// "done" event).
type TuneResponse struct {
	// Key is the tune spec's canonical identity: hex SHA-256 of its
	// canonical encoding, defaults and the seeded interval grid included.
	Key string `json:"key"`
	// Name is the base scenario's name.
	Name string `json:"name"`
	// Report is the recommendation report (gb.TuneReport), verbatim.
	Report json.RawMessage `json:"report"`
}

// tuneRequest is a decoded, validated /v1/tune body.
type tuneRequest struct {
	ts  *gb.TuneSpec
	key string
}

// decodeTune parses and validates a TuneRequest body. The planned-cell
// upper bound (the whole ladder plus baseline and sensitivity, memoization
// aside) is held to the same -max-cells budget sweeps are.
func (s *Server) decodeTune(r *http.Request) (*tuneRequest, error) {
	var req TuneRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	if len(req.Spec) == 0 {
		return nil, badSpec("request has no spec")
	}
	ts, err := gb.ParseTuneSpec(bytes.NewReader(req.Spec))
	if err != nil {
		return nil, err
	}
	key, err := gb.TuneSpecKey(ts)
	if err != nil {
		return nil, err
	}
	if planned := ts.PlannedCells(); planned > s.opts.MaxCells {
		return nil, badSpec("tune spec %q plans up to %d cells; this daemon accepts at most %d",
			ts.Base.Name, planned, s.opts.MaxCells)
	}
	return &tuneRequest{ts: ts, key: key}, nil
}

// tuneRunner backs a search with the daemon's machinery: each eval's cells
// are scheduled on the shared pool under the request's tenant (round-robin
// fairness at cell granularity, like any sweep) and served through the
// determinism cache — a tune cell and an identical /v1/sweeps cell share
// one cache entry. The rung's horizon is applied exactly as specified (0 =
// unbounded): substituting the daemon's default would fork the search away
// from what the same spec computes in-process, breaking report parity.
func (s *Server) tuneRunner() tune.Runner {
	return func(ctx context.Context, ev tune.Eval) ([]gb.CellSummary, error) {
		specKey, err := gb.SpecKey(ev.Spec)
		if err != nil {
			return nil, err
		}
		cells, err := gb.ScenarioCells(ev.Spec)
		if err != nil {
			return nil, err
		}
		ectx, cancel := context.WithCancel(ctx)
		defer cancel()
		req := &request{sc: ev.Spec, key: specKey, horizonS: ev.HorizonS, cells: cells}
		ch, err := s.schedule(ectx, req)
		if err != nil {
			return nil, err
		}
		out, _, err := collect(ectx, cancel, len(cells), ch)
		if err != nil {
			return nil, err
		}
		sums := make([]WireCell, len(out))
		for i, b := range out {
			if err := json.Unmarshal(b, &sums[i]); err != nil {
				return nil, fmt.Errorf("gbd: tune cell %d: %w", i, err)
			}
		}
		return sums, nil
	}
}

func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	req, err := s.decodeTune(r)
	if err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	opts := tune.Options{
		Run:     s.tuneRunner(),
		Workers: s.poolSize,
		Metrics: s.col,
	}

	if !wantsSSE(r) {
		rep, err := tune.Search(ctx, req.ts, opts)
		if err != nil {
			s.countCanceled(err)
			writeError(w, err)
			return
		}
		body, err := marshalWire(rep)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, TuneResponse{Key: req.key, Name: req.ts.Base.Name, Report: body})
		return
	}

	// SSE: a "tune" head, one "rung" event per completed rung (id = rung
	// index, in ladder order — Search invokes OnRung synchronously on this
	// goroutine), then a terminal "done" carrying the full response, or
	// "error".
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)

	head, _ := marshalWire(TuneResponse{Key: req.key, Name: req.ts.Base.Name})
	fmt.Fprintf(w, "event: tune\ndata: %s\n\n", head)
	rc.Flush()

	opts.OnRung = func(rr tune.RungReport) {
		body, err := marshalWire(rr)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: rung\nid: %d\ndata: %s\n\n", rr.Rung, body)
		rc.Flush()
	}
	rep, err := tune.Search(ctx, req.ts, opts)
	if err != nil {
		cancel()
		s.countCanceled(err)
		body, _ := marshalWire(ErrorResponse{Status: statusOf(err), Error: err.Error()})
		fmt.Fprintf(w, "event: error\ndata: %s\n\n", body)
		rc.Flush()
		return
	}
	body, err := marshalWire(rep)
	if err != nil {
		body, _ = marshalWire(ErrorResponse{Status: statusOf(err), Error: err.Error()})
		fmt.Fprintf(w, "event: error\ndata: %s\n\n", body)
		rc.Flush()
		return
	}
	done, _ := marshalWire(TuneResponse{Key: req.key, Name: req.ts.Base.Name, Report: body})
	fmt.Fprintf(w, "event: done\ndata: %s\n\n", done)
	rc.Flush()
}

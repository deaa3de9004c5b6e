package gbd

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/gb"
)

// FuzzDecodeRequest feeds arbitrary bodies to the request decoders behind
// /v1/runs, /v1/sweeps (decode), and /v1/tune (decodeTune). Neither may
// panic, every rejection must wrap gb.ErrBadSpec (a 400), and an accepted
// request must plan between 1 and MaxCells cells.
func FuzzDecodeRequest(f *testing.F) {
	files, _ := filepath.Glob("../../examples/scenarios/*.json")
	files = append(files, "../../examples/tune/smoke-tune.json")
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(sweepBody(string(b))))
	}
	f.Add([]byte(sweepBody(hugeRepsSpec)))
	f.Add([]byte(tuneBody(overflowTuneSpec)))

	s := NewServer(Options{Workers: 1, MaxCells: 64})
	f.Cleanup(func() { s.Close() })
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := s.decode(httptest.NewRequest("POST", "/v1/sweeps", bytes.NewReader(body)))
		if err != nil {
			if !errors.Is(err, gb.ErrBadSpec) {
				t.Fatalf("decode error does not wrap ErrBadSpec: %v", err)
			}
		} else if n := len(req.cells); n < 1 || n > s.opts.MaxCells {
			t.Fatalf("decode accepted %d cells, want 1..%d", n, s.opts.MaxCells)
		}
		treq, err := s.decodeTune(httptest.NewRequest("POST", "/v1/tune", bytes.NewReader(body)))
		if err != nil {
			if !errors.Is(err, gb.ErrBadSpec) {
				t.Fatalf("decodeTune error does not wrap ErrBadSpec: %v", err)
			}
		} else if n := treq.ts.PlannedCells(); n < 1 || n > s.opts.MaxCells {
			t.Fatalf("decodeTune accepted a plan of %d cells, want 1..%d", n, s.opts.MaxCells)
		}
	})
}

package gb

import (
	"context"
	"fmt"

	"repro/internal/scenario"
)

// CellKey identifies one cell of a scenario's Scales × Modes × Reps matrix:
// its coordinates plus the seed derived from its position. Obtain keys from
// ScenarioCells — a key is only meaningful for the scenario that minted it.
type CellKey = scenario.Cell

// CellSummary is one finished cell's headline figures: coordinates, seed,
// engine, execution time, checkpoint and event counts, and failure and
// job-stream aggregates when the cell had them. It is the one cell summary
// the sweep table, the gbd wire cell, and the tuner all read; its JSON
// encoding is the gbd wire format.
type CellSummary = scenario.Summary

// CanonicalScenario returns the scenario's canonical wire encoding: compact
// JSON, stable field order, every defaulted knob written out. The bytes
// round-trip through ParseScenario unchanged, so they serve as both the
// versioned wire contract for scenario specs and the input to SpecKey.
func CanonicalScenario(sc *Scenario) ([]byte, error) {
	b, err := scenario.Canonical(sc)
	if err != nil {
		return nil, fmt.Errorf("gb: %w: %v", ErrBadSpec, err)
	}
	return b, nil
}

// SpecKey returns the scenario's canonical identity: the hex SHA-256 of its
// CanonicalScenario encoding. Every cell result is fully determined by the
// spec and the cell's derived seed, so equal keys mean byte-identical
// sweeps — the property that makes results infinitely cacheable.
func SpecKey(sc *Scenario) (string, error) {
	k, err := scenario.Key(sc)
	if err != nil {
		return "", fmt.Errorf("gb: %w: %v", ErrBadSpec, err)
	}
	return k, nil
}

// ScenarioCells returns the scenario's flattened run matrix — Scales ×
// Modes × Reps in row-major order, each cell carrying its derived seed.
// The scenario is defaulted and validated on a copy, like Sweep does, so
// the returned keys match exactly the cells a Sweep of the same scenario
// would run. Feed them to RunCell to execute cells individually — e.g. on
// a scheduler that interleaves cells from many sweeps, as gbd does.
func ScenarioCells(sc *Scenario) ([]CellKey, error) {
	spec, _, err := newConfig(scopeCell).sweepSpec(sc)
	if err != nil {
		return nil, err
	}
	return spec.Cells(), nil
}

// RunCell executes exactly one cell of a scenario and returns its full run
// Result — the per-cell counterpart of Sweep, for callers that schedule
// cells themselves. The cell key must come from ScenarioCells of the same
// scenario: a key whose coordinates or seed do not match the scenario's
// matrix is rejected with ErrBadSpec (a doctored seed would silently
// diverge from what a Sweep of the spec produces).
//
// Accepted options: WithHorizon (per-cell virtual-time bound),
// WithCellMetrics (attach a per-cell metrics snapshot), and WithRunWorkers
// (intra-run event-loop threads; byte-identical at any count). The scenario spec
// owns everything else; WithSeed is rejected because the cell key already
// carries its derived seed. Identical (scenario, cell) inputs produce
// identical Results, bit for bit.
func RunCell(ctx context.Context, sc *Scenario, c CellKey, opts ...Option) (*Result, error) {
	cfg := newConfig(scopeCell)
	if err := cfg.apply(opts); err != nil {
		return nil, err
	}
	spec, ins, err := cfg.sweepSpec(sc)
	if err != nil {
		return nil, err
	}
	found := false
	for _, cand := range spec.Cells() {
		if cand == c {
			found = true
			break
		}
	}
	if !found {
		return nil, errBadSpec("RunCell: cell %+v is not in scenario %q's matrix", c, spec.Name)
	}
	return spec.RunCell(ctx, c, ins)
}

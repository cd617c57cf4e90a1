package main

import (
	"fmt"

	"topodb"
)

// Derivation rows, in topodb.ArtifactDerivationCounts order.
const (
	derivArrangementCold = iota
	derivArrangementIncremental
	derivArrangementAliased
	derivUniverseCold
	derivUniverseIncremental
	derivUniverseRefinedCold
	derivUniverseRefinedIncremental
	derivInvariantCold
	derivInvariantIncremental
	derivSInvariantCold
	derivRows
)

// derivNames are the per-layer metric suffixes of the rows.
var derivNames = [derivRows]string{
	"arrangement.cold", "arrangement.incremental", "arrangement.aliased",
	"universe.cold", "universe.incremental",
	"universe_refined.cold", "universe_refined.incremental",
	"invariant.cold", "invariant.incremental",
	"sinvariant.cold",
}

func derivIsCold(i int) bool {
	switch i {
	case derivArrangementCold, derivUniverseCold, derivUniverseRefinedCold, derivInvariantCold, derivSInvariantCold:
		return true
	}
	return false
}

// derivCounts reads topodb's process-wide derivation tallies into row
// order, matching rows by kind, mode and refinement rather than position.
func derivCounts() []uint64 {
	out := make([]uint64, derivRows)
	for _, c := range topodb.ArtifactDerivationCounts() {
		kind := c.Kind
		if c.Refined {
			kind += "_refined"
		}
		for i, name := range derivNames {
			if name == kind+"."+c.Mode {
				out[i] = c.N
			}
		}
	}
	return out
}

func derivDelta(before, after []uint64) []uint64 {
	out := make([]uint64, len(after))
	for i := range after {
		out[i] = after[i] - before[i]
	}
	return out
}

// setDerivMetrics stores the per-Apply derivation rows and the share of
// non-aliased derivations that were incremental.
func setDerivMetrics(vals map[string]float64, delta []uint64, applies int) {
	var inc, cold uint64
	for i, n := range delta {
		vals["topodb.deriv."+derivNames[i]] = float64(n) / float64(max(applies, 1))
		switch {
		case derivIsCold(i):
			cold += n
		case i != derivArrangementAliased:
			inc += n
		}
	}
	if inc+cold > 0 {
		vals["topodb.incremental_frac"] = float64(inc) / float64(inc+cold)
	}
}

// checkModes compares the library's derivation deltas with the modes a
// replay took, returning one line per disagreement.
func checkModes(lib []uint64, replay [derivRows]uint64) []string {
	var out []string
	for i := range replay {
		if replay[i] != lib[i] {
			out = append(out, fmt.Sprintf("cross-check: %s: library %d, replay %d", derivNames[i], lib[i], replay[i]))
		}
	}
	return out
}

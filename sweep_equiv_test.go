package topodb

import (
	"testing"

	"topodb/internal/arrange"
	"topodb/internal/fourint"
	"topodb/internal/geom"
	"topodb/internal/invariant"
	"topodb/internal/spatial"
	"topodb/internal/workload"
)

func equivCases() map[string]*spatial.Instance {
	return map[string]*spatial.Instance{
		"rect_grid":      workload.RectGrid(4),
		"overlap_chain":  workload.OverlapChain(12),
		"nested_rings":   workload.NestedRings(8),
		"county_mesh":    workload.CountyMesh(4),
		"lens_stack":     workload.LensStack(10),
		"circle_pair":    workload.CirclePair(16),
		"sparse_scatter": workload.SparseScatter(60),
		"city_blocks":    workload.CityBlocks(6),
	}
}

// The end-to-end guarantee behind the sweep switch: the canonical
// invariant encoding — the byte string every equivalence decision hashes
// on — is identical whether the arrangement was built by the plane sweep
// or by the quadratic reference path, on every workload generator.
func TestSweepCanonicalInvariantBytes(t *testing.T) {
	for name, in := range equivCases() {
		t.Run(name, func(t *testing.T) {
			old := arrange.SetSweepMin(1 << 30) // force naive
			tn, err := invariant.New(in)
			arrange.SetSweepMin(0) // force sweep
			ts, err2 := invariant.New(in)
			arrange.SetSweepMin(old)
			if err != nil || err2 != nil {
				t.Fatal(err, err2)
			}
			if tn.Canonical() != ts.Canonical() {
				t.Fatalf("canonical invariant differs between naive and sweep builds")
			}
		})
	}
}

// The bounding-box prune must be invisible in the output: AllPairs with
// and without pruning (unprunable boxes) produce identical relation maps.
func TestBoxPruneRelationsIdentical(t *testing.T) {
	for name, in := range equivCases() {
		t.Run(name, func(t *testing.T) {
			a, err := arrange.Build(in)
			if err != nil {
				t.Fatal(err)
			}
			unpruned, err := fourint.AllPairsFromBoxes(a, unprunableBoxes(in))
			pruned, err2 := fourint.AllPairs(in)
			if err != nil || err2 != nil {
				t.Fatal(err, err2)
			}
			if len(unpruned) != len(pruned) {
				t.Fatalf("map sizes differ: %d vs %d", len(unpruned), len(pruned))
			}
			for k, v := range unpruned {
				if pruned[k] != v {
					t.Fatalf("%v: pruned %v, unpruned %v", k, pruned[k], v)
				}
			}
		})
	}
}

// unprunableBoxes returns n copies of in's union box: every pair of boxes
// intersects, so the all-pairs classifier scans every pair (the unpruned
// reference).
func unprunableBoxes(in *spatial.Instance) []geom.Box {
	u, _ := in.Box()
	boxes := make([]geom.Box, in.Len())
	for i := range boxes {
		boxes[i] = u
	}
	return boxes
}

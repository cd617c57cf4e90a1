package main

import (
	"encoding/json"
	"strings"
	"testing"

	"topodb/internal/arrange"
	"topodb/internal/geom"
	"topodb/internal/rat"
	"topodb/internal/spatial"
	"topodb/internal/workload"
)

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// inside reports whether rectangle r lies in the closed box b.
func inside(b geom.Box, r [4]int64) bool {
	return b.MinX.Cmp(rat.FromInt(r[0])) <= 0 && b.MinY.Cmp(rat.FromInt(r[1])) <= 0 &&
		b.MaxX.Cmp(rat.FromInt(r[2])) >= 0 && b.MaxY.Cmp(rat.FromInt(r[3])) >= 0
}

func baseBox(t *testing.T, in *spatial.Instance) geom.Box {
	t.Helper()
	b, ok := in.Box()
	if !ok {
		t.Fatal("empty base instance")
	}
	return b
}

func TestMetroOpsSeeded(t *testing.T) {
	a, b := mustJSON(t, metroOps(7, 300)), mustJSON(t, metroOps(7, 300))
	if a != b {
		t.Fatal("same seed gave different metro op streams")
	}
	if c := mustJSON(t, metroOps(8, 300)); c == a {
		t.Fatal("different seeds gave the same metro op stream")
	}
}

func TestMetroOpsPlacements(t *testing.T) {
	base := workload.MetroGrid(metroN, metroDistrict, metroStraddlePct)
	box := baseBox(t, base)
	last := base.Names()[base.Len()-1]
	kinds := map[string]int{}
	for _, seed := range []int64{1, 2, 3} {
		prev := last
		for _, op := range metroOps(seed, metroMaxOps) {
			if !inside(box, op.Rect) {
				t.Fatalf("seed %d: %s %v leaves the base bbox", seed, op.Name, op.Rect)
			}
			if op.Rect[0] >= op.Rect[2] || op.Rect[1] >= op.Rect[3] {
				t.Fatalf("seed %d: %s %v is degenerate", seed, op.Name, op.Rect)
			}
			if _, ok := base.Ext(op.Neighbour); !ok {
				t.Fatalf("seed %d: %s names missing neighbour %s", seed, op.Name, op.Neighbour)
			}
			if op.Name <= prev {
				t.Fatalf("seed %d: %s does not sort after %s", seed, op.Name, prev)
			}
			prev = op.Name
			kinds[op.Placement]++
		}
	}
	for _, k := range []string{"district", "belt", "straddle"} {
		if kinds[k] == 0 {
			t.Errorf("no %s placements", k)
		}
	}
}

func TestMetroOpsUnderRegionBudget(t *testing.T) {
	if got := arrange.RegionBudget(); got != defaultRegionBudget {
		t.Fatalf("default region budget is %d, the benchmark assumes %d", got, defaultRegionBudget)
	}
	if n := len(metroOps(1, 1<<20)); metroN+n >= defaultRegionBudget {
		t.Fatalf("longest metro run reaches %d regions, budget %d", metroN+n, defaultRegionBudget)
	}
}

func TestServedOpsSeeded(t *testing.T) {
	a, b := mustJSON(t, servedOps(7, 2000)), mustJSON(t, servedOps(7, 2000))
	if a != b {
		t.Fatal("same seed gave different served streams")
	}
	if c := mustJSON(t, servedOps(8, 2000)); c == a {
		t.Fatal("different seeds gave the same served stream")
	}
}

func TestServedOpsShape(t *testing.T) {
	base := workload.ManyRegions(servedN)
	box := baseBox(t, base)
	const n = 60 * servedRate // the longest run: 60 s
	reqs := servedOps(3, n)
	lastWrite, writes := -servedWriteGap, 0
	kinds := map[string]int{}
	for i, q := range reqs {
		kinds[q.Kind]++
		if q.Kind != "apply" {
			for _, src := range append([]string{q.Query, q.A, q.B}, q.Queries...) {
				if strings.Contains(src, "Zs") {
					t.Fatalf("request %d reads an added region: %q", i, src)
				}
			}
			continue
		}
		if i-lastWrite < servedWriteGap {
			t.Fatalf("writes %d and %d closer than %d", lastWrite, i, servedWriteGap)
		}
		if i+servedWriteGap >= len(reqs) {
			t.Fatalf("write %d has fewer than %d reads after it", i, servedWriteGap)
		}
		if !inside(box, q.Rect) {
			t.Fatalf("write %d %v leaves the base bbox", i, q.Rect)
		}
		lastWrite = i
		writes++
	}
	if servedN+writes >= arrange.ShardThreshold() {
		t.Fatalf("%d regions reach the shard threshold %d", servedN+writes, arrange.ShardThreshold())
	}
	if frac := float64(writes) / float64(n); frac < 0.02 || frac > 0.04 {
		t.Fatalf("write share %.3f, want about 0.03", frac)
	}
	for _, k := range []string{"atom", "quant", "relate", "batch"} {
		if kinds[k] == 0 {
			t.Errorf("no %s reads", k)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Fatalf("max = %v, want 4", got)
	}
	if tailCount(90) != 100 || tailCount(99) != 1000 || tailCount(80) != 50 {
		t.Fatalf("tailCount: %d %d %d", tailCount(90), tailCount(99), tailCount(80))
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "op", Op: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", Op: 0, Parent: 0, Start: 10, End: 40},
		{Name: "b", Op: 0, Parent: 0, Start: 30, End: 60},
		{Name: "a", Op: 0, Parent: 0, Start: 70, End: 80},
	}}
	self := tr.selfTimes()[0]
	if self["op"] != 40 || self["a"] != 40 || self["b"] != 30 {
		t.Fatalf("self times %v", self)
	}
}

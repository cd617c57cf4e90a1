package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"

	"topodb"
	"topodb/internal/arrange"
	"topodb/internal/fourint"
	"topodb/internal/geom"
	"topodb/internal/region"
	"topodb/internal/spatial"
	"topodb/internal/workload"
)

// benchRow is one measurement of the performance baseline.
type benchRow struct {
	Name        string  `json:"name"`     // cold_build | all_pairs | cached_query | incremental_add | incremental_universe | incremental_invariant | incremental_refined_universe | point_location | prepared_query | large_build | large_incremental_add | sharded_*
	Workload    string  `json:"workload"` // generator name
	Size        int     `json:"size"`     // region count
	Mode        string  `json:"mode"`     // sweep|naive, pruned|unpruned, warm|cold, incremental|cold, indexed|scan
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchDoc is the machine-readable baseline document (BENCH_pr2.json).
type benchDoc struct {
	Schema     string     `json:"schema"`
	GoMaxProcs int        `json:"gomaxprocs"`
	Rows       []benchRow `json:"rows"`
}

func row(name, wl string, size int, mode string, r testing.BenchmarkResult) benchRow {
	return benchRow{
		Name:        name,
		Workload:    wl,
		Size:        size,
		Mode:        mode,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// coldBuild measures arrange.Build on in with the given sweep threshold
// override (0 forces the sweep, 1<<30 forces the naive reference).
func coldBuild(in *spatial.Instance, sweepMin int) testing.BenchmarkResult {
	old := arrange.SetSweepMin(sweepMin)
	defer arrange.SetSweepMin(old)
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := arrange.Build(in); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// allPairs measures the all-pairs classification from a prebuilt
// arrangement, with the bounding-box prune on or off. Off passes n copies
// of the union of the region boxes, so every pair intersects and takes the
// exact matrix scan.
func allPairs(a *arrange.Arrangement, prune bool) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			boxes := fourint.RegionBoxes(a)
			if !prune {
				u := boxes[0]
				for _, box := range boxes[1:] {
					u = u.Union(box)
				}
				for k := range boxes {
					boxes[k] = u
				}
			}
			if _, err := fourint.AllPairsFromBoxes(a, boxes); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// minTimed measures fn k times and reports the fastest run as a
// single-iteration result. The metro-scale builds take whole seconds per
// iteration, so testing.Benchmark would report one unrepeated sample;
// on a shared runner steal time only ever inflates a sample, making the
// minimum the robust estimator of the true cost. Allocation counters are
// recorded around every run (the fastest run's deltas are reported, like
// b.ReportAllocs), so build-style rows carry real bytes_per_op /
// allocs_per_op in committed baselines instead of zeros; the ReadMemStats
// bracket costs microseconds against millisecond-scale operations.
func minTimed(k int, fn func()) testing.BenchmarkResult {
	best := time.Duration(1<<63 - 1)
	var bestAllocs, bestBytes uint64
	var before, after runtime.MemStats
	for i := 0; i < k; i++ {
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		fn()
		el := time.Since(t0)
		runtime.ReadMemStats(&after)
		if el < best {
			best = el
			bestAllocs = after.Mallocs - before.Mallocs
			bestBytes = after.TotalAlloc - before.TotalAlloc
		}
	}
	return testing.BenchmarkResult{N: 1, T: best, MemAllocs: bestAllocs, MemBytes: bestBytes}
}

// collectBench runs the performance baseline and returns the
// machine-readable document.
func collectBench() benchDoc {
	var rows []benchRow

	// Sharded sub-arrangements at metro scale: n=10k regions in 2500
	// box-disjoint districts. Cold build fans the shards out over the
	// worker pool and each shard's labeling touches only its own regions,
	// so the win over the monolithic sweep — whose cell labeling is
	// O(cells x n) — is asymptotic, not parallelism (the gate must hold
	// on one core). The incremental rows extend the parent by one far
	// region: only the new region's shard is built, every other
	// sub-arrangement is aliased from the parent generation. This family
	// runs first, while the live heap is still small: the 10k-region
	// builds allocate enough to be GC-paced, and measuring them against a
	// heap of leftover artifacts from other families skews both sides.
	{
		const metroN = 10000
		oldBudget := arrange.SetRegionBudget(200000)
		ctx := context.Background()
		metro := workload.MetroGrid(metroN, 2, 0)

		// Both timed loops discard their results: retaining one build's
		// output while timing the next doubles the GC target and flatters
		// whichever side runs second.
		rows = append(rows, row("sharded_build", "metro_grid", metroN, "sharded",
			minTimed(5, func() {
				_, err := arrange.BuildSharded(ctx, metro)
				check(err)
			})))
		rows = append(rows, row("sharded_build", "metro_grid", metroN, "monolithic",
			minTimed(2, func() {
				_, err := arrange.Build(metro)
				check(err)
			})))

		parent, err := arrange.BuildSharded(ctx, metro)
		check(err)
		grown := metro.Clone()
		grown.MustAdd("Znew", region.MustRect(1000000, 1000000, 1000004, 1000004))
		rows = append(rows, row("sharded_incremental_add", "metro_grid", metroN, "incremental",
			minTimed(10, func() {
				_, err := arrange.InsertSharded(ctx, parent, grown, "Znew")
				check(err)
			})))
		rows = append(rows, row("sharded_incremental_add", "metro_grid", metroN, "cold",
			minTimed(3, func() {
				_, err := arrange.BuildSharded(ctx, grown)
				check(err)
			})))

		// Stitched point location — route to one shard, locate inside its
		// small complex — vs the monolithic indexed locator over the full
		// 10k-region arrangement. Sub-second per op, so testing.Benchmark
		// repeats these plenty.
		mono, err := arrange.Build(metro)
		check(err)
		var pts []geom.Pt
		for fi := 0; fi < len(mono.Faces); fi += 53 {
			pts = append(pts, mono.Faces[fi].Sample)
		}
		if _, err := mono.FaceOfPoint(pts[0]); err != nil { // warm the index
			check(err)
		}
		parent.Locate(pts[0]) // warm the shard route index
		rows = append(rows, row("sharded_locate", "metro_grid", metroN, "sharded",
			testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					parent.Locate(pts[i%len(pts)])
				}
			})))
		rows = append(rows, row("sharded_locate", "metro_grid", metroN, "monolithic",
			testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := mono.FaceOfPoint(pts[i%len(pts)]); err != nil {
						b.Fatal(err)
					}
				}
			})))
		arrange.SetRegionBudget(oldBudget)
	}

	// Incremental derived artifacts: the end-to-end warm mutation→query
	// pipeline (single-region Apply, then the first Query or Invariant on
	// the new generation) vs the same sequence with incremental
	// maintenance disabled. Runs second, right after the sharded family,
	// for the same GC-pacing reason.
	rows = append(rows, incrementalArtifactRows()...)
	rows = append(rows, refinedUniverseRows()...)

	// Cold arrangement construction, sweep vs all-pairs reference.
	type buildCase struct {
		wl   string
		in   *spatial.Instance
		size int
	}
	builds := []buildCase{
		{"sparse_scatter", workload.SparseScatter(50), 50},
		{"sparse_scatter", workload.SparseScatter(100), 100},
		{"sparse_scatter", workload.SparseScatter(200), 200},
		{"city_blocks", workload.CityBlocks(12), 24},
		{"city_blocks", workload.CityBlocks(24), 48},
		{"lens_stack", workload.LensStack(16), 16},
		{"county_mesh", workload.CountyMesh(8), 64},
	}
	for _, c := range builds {
		rows = append(rows,
			row("cold_build", c.wl, c.size, "sweep", coldBuild(c.in, 0)),
			row("cold_build", c.wl, c.size, "naive", coldBuild(c.in, 1<<30)),
		)
	}

	// All-pairs classification, box prune on vs off.
	scatter := workload.SparseScatter(150)
	a, err := arrange.Build(scatter)
	check(err)
	rows = append(rows,
		row("all_pairs", "sparse_scatter", 150, "pruned", allPairs(a, true)),
		row("all_pairs", "sparse_scatter", 150, "unpruned", allPairs(a, false)),
	)

	// Cached query engine: cold (fresh instance per query) vs warm
	// (generation-stamped artifact cache hit).
	const q = "some cell r: subset(r, C000) and subset(r, C001)"
	rows = append(rows, row("cached_query", "overlap_chain", 12, "cold",
		testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				db := topodb.Wrap(workload.OverlapChain(12))
				if ok, err := db.Query(q); err != nil || !ok {
					b.Fatal(ok, err)
				}
			}
		})))
	warm := topodb.Wrap(workload.OverlapChain(12))
	if ok, err := warm.Query(q); err != nil || !ok {
		check(fmt.Errorf("warm-up query failed: %v %v", ok, err))
	}
	rows = append(rows, row("cached_query", "overlap_chain", 12, "warm",
		testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ok, err := warm.Query(q); err != nil || !ok {
					b.Fatal(ok, err)
				}
			}
		})))

	// Incremental arrangement maintenance: deriving the n+1-region
	// arrangement from a warm n=200 scatter parent vs the cold rebuild
	// of the same 201-region instance.
	{
		base := workload.SparseScatter(200)
		parent, err := arrange.Build(base)
		check(err)
		grown := base.Clone()
		grown.MustAdd("Znew", workload.SparseScatter(201).MustExt("S0200"))
		ctx := context.Background()
		if _, err := arrange.Insert(ctx, parent, grown, "Znew"); err != nil {
			check(err) // also warms the parent's point-location index
		}
		rows = append(rows, row("incremental_add", "sparse_scatter", 200, "incremental",
			testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := arrange.Insert(ctx, parent, grown, "Znew"); err != nil {
						b.Fatal(err)
					}
				}
			})))
		rows = append(rows, row("incremental_add", "sparse_scatter", 200, "cold",
			testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := arrange.Build(grown); err != nil {
						b.Fatal(err)
					}
				}
			})))

		// Point location: the persistent x-interval index vs the linear
		// edge/face scan, on face-interior probes.
		var pts []geom.Pt
		for fi := range parent.Faces {
			pts = append(pts, parent.Faces[fi].Sample)
		}
		rows = append(rows, row("point_location", "sparse_scatter", 200, "indexed",
			testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := parent.FaceOfPoint(pts[i%len(pts)]); err != nil {
						b.Fatal(err)
					}
				}
			})))
		rows = append(rows, row("point_location", "sparse_scatter", 200, "scan",
			testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := parent.FaceOfPointScan(pts[i%len(pts)]); err != nil {
						b.Fatal(err)
					}
				}
			})))
	}

	// Large-instance serving, 4x past the old 256-region owner-set
	// ceiling: cold build of a 1024-region mosaic (sweep vs the quadratic
	// reference), and a single-region incremental add at the same scale —
	// the interned owner pool must keep Insert clearly ahead of the cold
	// rebuild as instances grow.
	{
		large := workload.ManyRegions(1024)
		rows = append(rows,
			row("large_build", "many_regions", 1024, "sweep", coldBuild(large, 0)),
			row("large_build", "many_regions", 1024, "naive", coldBuild(large, 1<<30)),
		)
		parent, err := arrange.Build(large)
		check(err)
		grown := large.Clone()
		grown.MustAdd("Znew", region.MustRect(1, 1, 5, 5))
		ctx := context.Background()
		// The throwaway Insert warms the parent's point-location index, as
		// a served parent would be.
		_, err = arrange.Insert(ctx, parent, grown, "Znew")
		check(err)
		rows = append(rows, row("large_incremental_add", "many_regions", 1024, "incremental",
			testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := arrange.Insert(ctx, parent, grown, "Znew"); err != nil {
						b.Fatal(err)
					}
				}
			})))
		rows = append(rows, row("large_incremental_add", "many_regions", 1024, "cold",
			testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := arrange.Build(grown); err != nil {
						b.Fatal(err)
					}
				}
			})))
	}

	// Prepared vs unprepared warm queries: both hit the same cached
	// universe, so the delta is exactly the per-call parse + analysis
	// cost a PreparedQuery eliminates.
	pdb := topodb.Wrap(workload.OverlapChain(12))
	pq, err := pdb.Prepare(q)
	check(err)
	ctx := context.Background()
	if ok, err := pq.Eval(ctx); err != nil || !ok {
		check(fmt.Errorf("prepared warm-up failed: %v %v", ok, err))
	}
	rows = append(rows, row("prepared_query", "overlap_chain", 12, "prepared",
		testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ok, err := pq.Eval(ctx); err != nil || !ok {
					b.Fatal(ok, err)
				}
			}
		})))
	rows = append(rows, row("prepared_query", "overlap_chain", 12, "unprepared",
		testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ok, err := pdb.Query(q); err != nil || !ok {
					b.Fatal(ok, err)
				}
			}
		})))

	// Serving tier: identical concurrent requests with whole-request
	// coalescing on vs off (see serveload.go).
	rows = append(rows, serveCoalesceRows()...)

	return benchDoc{Schema: "topodb-bench/v1", GoMaxProcs: runtime.GOMAXPROCS(0), Rows: rows}
}

// incrementalArtifactRows measures the end-to-end incremental
// mutation→query pipeline: a warm single-region Apply followed by the
// first Query (incremental_universe rows: the query universe is the
// artifact that must materialize) or Invariant().Canonical()
// (incremental_invariant rows) on the new generation, against the same
// Apply+Query sequence with every maintenance knob zeroed so the
// arrangement, universe and invariant all recompute cold. The two paths
// produce byte-identical artifacts (property-tested in
// incremental_artifacts_test.go); the metro rows carry an absolute ≥5x
// gate in compareBench — the cold universe's label scans and the cold
// canonicalization's start minimization are both superlinear, which is
// exactly what the delta derivations avoid.
func incrementalArtifactRows() []benchRow {
	var rows []benchRow
	oldBudget := arrange.SetRegionBudget(200000)
	defer arrange.SetRegionBudget(oldBudget)
	fams := []struct {
		wl                   string
		size                 int
		in                   *spatial.Instance
		warmIters, coldIters int
	}{
		// Metro: 2500 box-disjoint districts of 4 border-sharing blocks —
		// sharded, big merged components, expensive cold canonicalization.
		{"metro_grid", 10000, workload.MetroGrid(10000, 2, 0), 3, 1},
		// Scatter: 200 regions, monolithic path, cheap enough to repeat.
		{"sparse_scatter", 200, workload.SparseScatter(200), 8, 3},
	}
	for _, f := range fams {
		q := "some cell r: subset(r, " + f.in.Names()[0] + ")"
		for _, family := range []string{"incremental_universe", "incremental_invariant"} {
			for _, mode := range []string{"incremental", "cold"} {
				db := topodb.Wrap(f.in.Clone())
				iters := f.warmIters
				restore := func() {}
				if mode == "cold" {
					iters = f.coldIters
					old := topodb.SetIncrementalMax(0)
					restore = func() { topodb.SetIncrementalMax(old) }
				}
				serial := 0
				op := func() {
					name := fmt.Sprintf("Zw%06d", serial)
					x := int64(9000000 + 10*serial)
					serial++
					check(db.Apply(func(tx *topodb.Txn) error {
						return tx.AddRect(name, x, 9000000, x+4, 9000004)
					}))
					if family == "incremental_universe" {
						if ok, err := db.Query(q); err != nil || !ok {
							check(fmt.Errorf("%s query failed: %v %v", family, ok, err))
						}
					} else {
						iv, err := db.Invariant()
						check(err)
						if iv.Canonical() == "" {
							check(fmt.Errorf("empty canonical encoding"))
						}
					}
				}
				op() // materialize the base generation's artifacts
				rows = append(rows, row(family, f.wl, f.size, mode, minTimed(iters, op)))
				restore()
			}
		}
	}
	return rows
}

// refinedUniverseRows measures the warm Apply→EvalRefined path against the
// knobs-off cold rebuild: the refined (k > 0) universe was the last
// artifact to recompute its scaffolded arrangement cold per generation.
// The added regions sit strictly inside the instance bounding box (the
// metro grid's region-free belt strips, the scatter's interior), so the
// scaffold grid stays anchored and the warm path stays eligible for
// folang.InsertUniverseRefined — an out-of-box add would grow the box,
// move the scaffold, and silently measure the cold fallback twice.
func refinedUniverseRows() []benchRow {
	const refineK = 2
	var rows []benchRow
	oldBudget := arrange.SetRegionBudget(200000)
	defer arrange.SetRegionBudget(oldBudget)
	fams := []struct {
		wl                   string
		size                 int
		in                   *spatial.Instance
		warmIters, coldIters int
		rect                 func(serial int) [4]int64
	}{
		// Metro districts occupy x mod 11 ∈ [0, 8); the belt strips
		// x mod 11 ∈ [8, 11) are region-free at every y, so belt adds stay
		// inside the box without touching any district.
		{"metro_grid", 10000, workload.MetroGrid(10000, 2, 0), 3, 1,
			func(s int) [4]int64 { return [4]int64{9, int64(2 + 3*s), 10, int64(4 + 3*s)} }},
		// The scatter's box is [3,2]..[343,341]; the adds walk its
		// interior (overlapping a scatter rect is fine — only box growth
		// would break incrementality).
		{"sparse_scatter", 200, workload.SparseScatter(200), 8, 3,
			func(s int) [4]int64 { return [4]int64{int64(150 + 12*s), 150, int64(155 + 12*s), 158} }},
	}
	for _, f := range fams {
		pqSrc := "some cell r: subset(r, " + f.in.Names()[0] + ")"
		for _, mode := range []string{"incremental", "cold"} {
			db := topodb.Wrap(f.in.Clone())
			pq, err := db.Prepare(pqSrc)
			check(err)
			iters := f.warmIters
			restore := func() {}
			if mode == "cold" {
				iters = f.coldIters
				old := topodb.SetIncrementalMax(0)
				restore = func() { topodb.SetIncrementalMax(old) }
			}
			serial := 0
			op := func() {
				r := f.rect(serial)
				name := fmt.Sprintf("Zr%06d", serial)
				serial++
				check(db.Apply(func(tx *topodb.Txn) error {
					return tx.AddRect(name, r[0], r[1], r[2], r[3])
				}))
				ok, err := pq.EvalRefined(context.Background(), refineK)
				if err != nil || !ok {
					check(fmt.Errorf("refined eval failed: %v %v", ok, err))
				}
			}
			op() // materialize the base generation's refined universe
			rows = append(rows, row("incremental_refined_universe", f.wl, f.size, mode, minTimed(iters, op)))
			restore()
		}
	}
	return rows
}

// bench runs the performance baseline and prints it as a text table, or as
// the BENCH_prN.json document with -json.
func bench() {
	doc := collectBench()
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(doc))
		return
	}
	printBench(doc)
}

func printBench(doc benchDoc) {
	fmt.Println("Performance baseline (ns/op; see the newest BENCH_prN.json for the committed run):")
	for _, r := range doc.Rows {
		fmt.Printf("  %-14s %-15s n=%-4d %-10s %12.0f ns/op %10d B/op %8d allocs/op\n",
			r.Name, r.Workload, r.Size, r.Mode, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
}

// speedupPairs maps each benchmark family to its (fast, slow) mode pair;
// the slow/fast ns ratio is the speedup the family must preserve.
var speedupPairs = map[string][2]string{
	"cold_build":            {"sweep", "naive"},
	"all_pairs":             {"pruned", "unpruned"},
	"cached_query":          {"warm", "cold"},
	"incremental_add":       {"incremental", "cold"},
	"large_build":           {"sweep", "naive"},
	"large_incremental_add": {"incremental", "cold"},
	"point_location":        {"indexed", "scan"},
	"serve_coalesce":        {"on", "off"},

	"sharded_build":           {"sharded", "monolithic"},
	"sharded_incremental_add": {"incremental", "cold"},
	"sharded_locate":          {"sharded", "monolithic"},

	"incremental_universe":         {"incremental", "cold"},
	"incremental_invariant":        {"incremental", "cold"},
	"incremental_refined_universe": {"incremental", "cold"},
}

// newestBaseline returns the committed BENCH_prN.json with the highest N
// in dir, so the gate always tracks the most recent PR's baseline without
// anyone editing a hard-coded filename.
func newestBaseline(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_pr*.json"))
	if err != nil {
		return "", err
	}
	re := regexp.MustCompile(`BENCH_pr(\d+)\.json$`)
	best, bestN := "", -1
	sort.Strings(matches)
	for _, m := range matches {
		sub := re.FindStringSubmatch(m)
		if sub == nil {
			continue
		}
		n, err := strconv.Atoi(sub[1])
		if err != nil {
			continue
		}
		if n > bestN {
			best, bestN = m, n
		}
	}
	if best == "" {
		return "", fmt.Errorf("no BENCH_pr*.json baseline found in %s", dir)
	}
	return best, nil
}

// compareBench reruns the baseline and gates it against a committed
// BENCH_prN.json — the newest one when called with "auto": every speedup
// ratio recorded in the baseline must be preserved up to a generous noise
// factor (ratios are far more stable across machines than absolute
// ns/op), and the prepared path must not be slower than re-parsing. Exits
// nonzero on regression.
func compareBench(baselinePath string) {
	if baselinePath == "auto" {
		resolved, err := newestBaseline(".")
		check(err)
		fmt.Printf("bench gate: newest committed baseline is %s\n", resolved)
		baselinePath = resolved
	}
	data, err := os.ReadFile(baselinePath)
	check(err)
	var base benchDoc
	check(json.Unmarshal(data, &base))
	cur := collectBench()
	printBench(cur)

	index := func(doc benchDoc) map[[4]string]float64 {
		m := make(map[[4]string]float64)
		for _, r := range doc.Rows {
			m[[4]string{r.Name, r.Workload, fmt.Sprint(r.Size), r.Mode}] = r.NsPerOp
		}
		return m
	}
	bi, ci := index(base), index(cur)

	var violations []string
	seen := map[[3]string]bool{}
	for _, r := range base.Rows {
		pair, gated := speedupPairs[r.Name]
		group := [3]string{r.Name, r.Workload, fmt.Sprint(r.Size)}
		if !gated || seen[group] {
			continue
		}
		seen[group] = true
		fastKey := [4]string{r.Name, r.Workload, group[2], pair[0]}
		slowKey := [4]string{r.Name, r.Workload, group[2], pair[1]}
		bFast, bSlow := bi[fastKey], bi[slowKey]
		cFast, cSlow := ci[fastKey], ci[slowKey]
		if bFast <= 0 || bSlow <= 0 || cFast <= 0 || cSlow <= 0 {
			continue // row retired or renamed; not a regression
		}
		baseRatio, curRatio := bSlow/bFast, cSlow/cFast
		// Floor: a quarter of the recorded speedup, never below break-
		// even (the warm cache keeps a higher absolute floor of 5x, and
		// the incremental path must stay clearly ahead of a cold rebuild
		// — 5x — however noisy the runner).
		floor := baseRatio * 0.25
		if r.Name == "cached_query" {
			floor = baseRatio * 0.05
			if floor < 5 {
				floor = 5
			}
		}
		if (r.Name == "incremental_add" || r.Name == "large_incremental_add") && floor < 5 {
			// The incremental path must stay clearly ahead of a cold
			// rebuild at every scale, including the 1024-region rows.
			floor = 5
		}
		if r.Name == "sharded_build" && floor < 5 {
			// The sharded cold build's win is asymptotic (shard-local
			// labeling), so it carries an absolute floor: at least 5x over
			// the monolithic sweep at n=10k on any machine.
			floor = 5
		}
		if (r.Name == "incremental_universe" || r.Name == "incremental_invariant" ||
			r.Name == "incremental_refined_universe") &&
			r.Workload == "metro_grid" && floor < 5 {
			// The acceptance bar for the incremental mutation→query
			// pipeline: a warm single-region Apply followed by the first
			// derived-artifact read at metro scale must stay at least 5x
			// ahead of cold recomputation on any machine — the cold side's
			// costs (universe label scans, canonical start minimization,
			// and for refined universes the full scaffolded rebuild) are
			// superlinear, so the ratio only grows with n.
			floor = 5
		}
		if r.Name == "sharded_incremental_add" && floor < 10 {
			// A one-region extension rebuilds one shard out of thousands;
			// anything under 10x over the sharded cold build means the
			// delta path stopped being shard-local.
			floor = 10
		}
		if r.Name == "serve_coalesce" {
			// The wall-clock win of coalescing scales with how many cores
			// the duplicate evaluations would have spread over, so the
			// recorded ratio is machine-dependent; gate only on coalescing
			// still being a clear win, not on the recorded multiple.
			floor = baseRatio * 0.1
			if floor < 1.2 {
				floor = 1.2
			}
		}
		if floor < 1 {
			// A family whose recorded ratio is near break-even (the
			// sweep's adversarial workloads hover around 1x by design)
			// gates on not regressing far below its own baseline, not on
			// a speedup it never had — otherwise ordinary noise around
			// 1.0x flakes the gate.
			floor = baseRatio * 0.75
			if floor > 1 {
				floor = 1
			}
		}
		if curRatio < floor {
			violations = append(violations, fmt.Sprintf(
				"%s %s n=%s: %s/%s speedup %.2fx below floor %.2fx (baseline %.2fx)",
				r.Name, r.Workload, group[2], pair[1], pair[0], curRatio, floor, baseRatio))
		}
	}

	// Prepared evaluation must show zero parse cost: never slower than
	// the parse-per-call path beyond noise.
	prep := ci[[4]string{"prepared_query", "overlap_chain", "12", "prepared"}]
	unprep := ci[[4]string{"prepared_query", "overlap_chain", "12", "unprepared"}]
	if prep <= 0 || unprep <= 0 {
		violations = append(violations, "prepared_query rows missing from current run")
	} else if prep > unprep*1.15 {
		violations = append(violations, fmt.Sprintf(
			"prepared_query: prepared %.0f ns/op slower than unprepared %.0f ns/op", prep, unprep))
	}

	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "benchtab: REGRESSION:", v)
		}
		os.Exit(1)
	}
	fmt.Printf("bench gate: all speedup ratios within tolerance of %s\n", baselinePath)
}

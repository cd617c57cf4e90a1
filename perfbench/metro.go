package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"topodb"
	"topodb/internal/arrange"
	"topodb/internal/folang"
	"topodb/internal/invariant"
	"topodb/internal/region"
	"topodb/internal/spatial"
	"topodb/internal/workload"
)

// metroRefinedQuery is the query metro_apply_query prepares once and
// evaluates with EvalRefined at k = metroRefine after every Apply.
const (
	metroRefinedQuery = "some cell r: subset(r, Mg000000) and not subset(r, Mg000001)"
	metroRefine       = 2
	// metroWarmQuery materializes the unrefined universe during set-up.
	metroWarmQuery = "overlap(Mg000000, Mg000001)"
)

func (op metroOp) query() string {
	return fmt.Sprintf("%s(%s, %s)", op.Pred, op.Name, op.Neighbour)
}

func (op metroOp) apply(tx *topodb.Txn) error {
	return tx.AddRect(op.Name, op.Rect[0], op.Rect[1], op.Rect[2], op.Rect[3])
}

// metroOutcome is what the library answered for one op.
type metroOutcome struct {
	latency time.Duration // Apply start → last answer
	apply   time.Duration // the Apply call alone
	v0, v2  bool          // k=0 and prepared k=metroRefine verdicts
	canon   [32]byte      // SHA-256 of the canonical encoding
}

// metroLibrary is one untraced pass of a metro workload through the
// public topodb API.
type metroLibrary struct {
	canonical bool
	setupS    []float64
	db        *topodb.Instance
	pq        *topodb.PreparedQuery
	ops       []metroOp
	out       []metroOutcome
	failed    int
	elapsed   time.Duration
	allocB    uint64
	deriv     []uint64 // derivation-count deltas over the measured ops
	steal     string   // host CPU steal over the measured ops
}

// metroSetup loads the instance and cold-materializes every artifact the
// workload reads: the arrangement and both query universes, or the
// invariant and its canonical encoding.
func metroSetup(ctx context.Context, canonical bool) (*topodb.Instance, *topodb.PreparedQuery, error) {
	db := topodb.Wrap(workload.MetroGrid(metroN, metroDistrict, metroStraddlePct))
	snap := db.Snapshot()
	if canonical {
		iv, err := snap.Invariant()
		if err != nil {
			return nil, nil, fmt.Errorf("setup invariant: %w", err)
		}
		_ = iv.Canonical() // memoized in the invariant
		return db, nil, nil
	}
	if _, err := snap.Query(ctx, metroWarmQuery); err != nil {
		return nil, nil, fmt.Errorf("setup query: %w", err)
	}
	pq, err := db.Prepare(metroRefinedQuery)
	if err != nil {
		return nil, nil, fmt.Errorf("setup prepare: %w", err)
	}
	if _, err := pq.EvalOn(ctx, snap, metroRefine); err != nil {
		return nil, nil, fmt.Errorf("setup refined: %w", err)
	}
	return db, pq, nil
}

// runMetroLibrary sets up `setups` times (keeping the last instance), then
// runs the seeded Apply stream for at least dur and at least minN ops.
func runMetroLibrary(ctx context.Context, canonical bool, seed int64, setups int, dur time.Duration, minN int) (*metroLibrary, error) {
	m := &metroLibrary{canonical: canonical}
	for i := 0; i < setups; i++ {
		m.db, m.pq = nil, nil
		runtime.GC()
		t0 := time.Now()
		db, pq, err := metroSetup(ctx, canonical)
		if err != nil {
			return nil, err
		}
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
		m.db, m.pq = db, pq
	}
	runtime.GC()

	stream := metroOps(seed, metroMaxOps)
	d0 := derivCounts()
	a0 := allocBytes()
	steal0, total0 := cpuTicks()
	start := time.Now()
	for i, op := range stream {
		if i >= minN && time.Since(start) >= dur {
			break
		}
		o, err := m.step(ctx, op)
		if err != nil {
			m.failed++
			fmt.Printf("op %d (%s) failed: %v\n", i, op.Name, err)
			break
		}
		m.ops = append(m.ops, op)
		m.out = append(m.out, o)
	}
	m.elapsed = time.Since(start)
	m.steal = stealNote(steal0, total0)
	m.allocB = allocBytes() - a0
	m.deriv = derivDelta(d0, derivCounts())
	return m, nil
}

// step runs one op: Apply, then either the k=0 query and the prepared
// refined query, or the invariant and its canonical encoding.
func (m *metroLibrary) step(ctx context.Context, op metroOp) (metroOutcome, error) {
	var o metroOutcome
	t0 := time.Now()
	if err := m.db.Apply(op.apply); err != nil {
		return o, fmt.Errorf("apply: %w", err)
	}
	o.apply = time.Since(t0)
	snap := m.db.Snapshot()
	if m.canonical {
		iv, err := snap.Invariant()
		if err != nil {
			return o, fmt.Errorf("invariant: %w", err)
		}
		c := iv.Canonical()
		o.latency = time.Since(t0)
		o.canon = sha256.Sum256([]byte(c))
		return o, nil
	}
	v0, err := snap.Query(ctx, op.query())
	if err != nil {
		return o, fmt.Errorf("query: %w", err)
	}
	v2, err := m.pq.EvalRefined(ctx, metroRefine)
	if err != nil {
		return o, fmt.Errorf("refined: %w", err)
	}
	o.latency = time.Since(t0)
	o.v0, o.v2 = v0, v2
	return o, nil
}

// oracle rebuilds the final region set cold in a fresh Instance and
// compares it with what the library answered: canonical bytes
// (metro_apply_canonical) or each op's relation (metro_apply_query), and
// query verdicts. It returns the number of
// mismatches.
func (m *metroLibrary) oracle(ctx context.Context) (int, error) {
	if len(m.ops) == 0 {
		return 0, nil
	}
	fresh := topodb.Wrap(workload.MetroGrid(metroN, metroDistrict, metroStraddlePct))
	err := fresh.Apply(func(tx *topodb.Txn) error {
		for _, op := range m.ops {
			if err := op.apply(tx); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("oracle apply: %w", err)
	}
	fs, ls := fresh.Snapshot(), m.db.Snapshot()
	bad := 0
	if m.canonical {
		// Canonical bytes of the final generation.
		fiv, err := fs.Invariant()
		if err != nil {
			return 0, fmt.Errorf("oracle invariant: %w", err)
		}
		if sha256.Sum256([]byte(fiv.Canonical())) != m.out[len(m.out)-1].canon {
			bad++
			fmt.Println("oracle: canonical encoding differs from the cold rebuild")
		}
	} else {
		// metro_apply_query never builds the invariant, and encoding it
		// twice (library and rebuild) would double the run; each op's
		// 4-intersection relation checks the final generation's sharded
		// artifact instead.
		for _, op := range m.ops {
			want, err := fs.Relate(op.Name, op.Neighbour)
			if err != nil {
				return 0, fmt.Errorf("oracle relate: %w", err)
			}
			got, err := ls.Relate(op.Name, op.Neighbour)
			if err != nil {
				return 0, fmt.Errorf("oracle library relate: %w", err)
			}
			if got != want {
				bad++
				fmt.Printf("oracle: relate(%s, %s) = %v, cold rebuild says %v\n", op.Name, op.Neighbour, got, want)
			}
		}
	}
	// Verdicts: every op's k=0 query (a relation of two regions, so later
	// Applies cannot change it) and the final refined verdict.
	for i, op := range m.ops {
		if m.canonical && i%5 != 0 {
			continue
		}
		want, err := fs.Query(ctx, op.query())
		if err != nil {
			return 0, fmt.Errorf("oracle query: %w", err)
		}
		got := m.out[i].v0
		if m.canonical {
			if got, err = ls.Query(ctx, op.query()); err != nil {
				return 0, fmt.Errorf("oracle library query: %w", err)
			}
		}
		if got != want {
			bad++
			fmt.Printf("oracle: %s = %v, cold rebuild says %v\n", op.query(), got, want)
		}
	}
	if !m.canonical {
		want, err := fs.QueryRefined(ctx, metroRefinedQuery, metroRefine)
		if err != nil {
			return 0, fmt.Errorf("oracle refined: %w", err)
		}
		if got := m.out[len(m.out)-1].v2; got != want {
			bad++
			fmt.Printf("oracle: refined %s = %v, cold rebuild says %v\n", metroRefinedQuery, got, want)
		}
	}
	return bad, nil
}

// endToEnd reports the untraced metrics of a metro run.
func (m *metroLibrary) endToEnd(res *result) {
	lat := make([]float64, len(m.out))
	apply := make([]float64, len(m.out))
	for i, o := range m.out {
		lat[i], apply[i] = ms(o.latency), ms(o.apply)
	}
	n := len(m.out)
	prefix, tail := "apply_query", float64(metroQueryTail)
	if m.canonical {
		prefix, tail = "apply_canonical", metroCanonicalTail
	}
	res.add(metric{Name: "setup_s", Value: median(m.setupS), Unit: "s", N: len(m.setupS)})
	res.add(metric{Name: "ops_per_s", Value: float64(n) / m.elapsed.Seconds(), Unit: "1/s", N: n})
	res.add(metric{Name: "op_p50_ms", Value: median(lat), Unit: "ms", N: n, Alias: prefix + "_p50_ms"})
	res.add(metric{Name: "op_tail_ms", Value: quantile(lat, tail/100), Unit: "ms", N: n,
		Alias: fmt.Sprintf("%s_p%.0f_ms", prefix, tail)})
	res.add(metric{Name: "apply_p50_ms", Value: median(apply), Unit: "ms", N: n})
	res.add(metric{Name: "alloc_mb_per_op", Value: float64(m.allocB) / 1e6 / float64(max(n, 1)), Unit: "MB", N: n})
	res.add(metric{Name: "peak_rss_mb", Value: peakRSSMB(), Unit: "MB", N: 1})
	res.note(m.steal)
	if n < tailCount(tail) {
		res.note(fmt.Sprintf("warning: %d ops < %d needed for p%.0f", n, tailCount(tail), tail))
	}
}

// The tail percentile each metro workload reports: the highest with at
// least ten samples beyond it at the op counts one run completes.
const (
	metroQueryTail     = 90
	metroCanonicalTail = 80
)

// metroGen is one generation of the replay: the artifacts the topodb
// cache would hold for it.
type metroGen struct {
	in     *spatial.Instance
	sh     *arrange.Sharded
	a      *arrange.Arrangement
	u0, u2 *folang.Universe
	t      *invariant.T
}

// release clears the delta provenance the next generation no longer
// needs, as the cache does when a generation becomes a parent.
func (g *metroGen) release() {
	g.a.ClearProv()
	for _, sub := range g.sh.Subs {
		if sub != nil {
			sub.ClearProv()
		}
	}
	if g.u2 != nil {
		g.u2.A.ClearProv()
	}
}

// metroReplay replays a metro op stream through the layer packages in the
// order the topodb cache calls them, with a span around each call.
type metroReplay struct {
	canonical bool
	tr        *tracer
	cur       *metroGen
	prepared  folang.Formula
	modes     [derivRows]uint64
	rebuilt   []float64 // shards rebuilt ÷ shards, per op
	allocMB   map[string][]float64
	lastCanon string // the latest op's canonical encoding
	canonLen  []float64
	v0, v2    []bool
	canon     [][32]byte
	coldS     map[string]float64
}

// newMetroReplay builds generation zero cold, timing each cold layer.
func newMetroReplay(ctx context.Context, canonical bool) (*metroReplay, error) {
	r := &metroReplay{canonical: canonical, tr: newTracer(), allocMB: map[string][]float64{}, coldS: map[string]float64{}}
	g := &metroGen{in: workload.MetroGrid(metroN, metroDistrict, metroStraddlePct)}
	t0 := time.Now()
	sh, err := arrange.BuildSharded(ctx, g.in)
	if err != nil {
		return nil, fmt.Errorf("cold sharded: %w", err)
	}
	a, err := arrange.Stitch(ctx, sh)
	if err != nil {
		return nil, fmt.Errorf("cold stitch: %w", err)
	}
	r.coldS["arrange.cold_build_s"] = time.Since(t0).Seconds()
	g.sh, g.a = sh, a
	if canonical {
		t0 = time.Now()
		t, err := invariant.FromArrangementCtx(ctx, a)
		if err != nil {
			return nil, fmt.Errorf("cold invariant: %w", err)
		}
		_ = t.Canonical()
		r.coldS["invariant.cold_canonical_s"] = time.Since(t0).Seconds()
		g.t = t
	} else {
		t0 = time.Now()
		if g.u0, err = folang.NewUniverseFromArrangementCtx(ctx, a, g.in); err != nil {
			return nil, fmt.Errorf("cold universe: %w", err)
		}
		if g.u2, err = folang.NewUniverseCtx(ctx, g.in, metroRefine); err != nil {
			return nil, fmt.Errorf("cold refined universe: %w", err)
		}
		r.coldS["folang.cold_universe_s"] = time.Since(t0).Seconds()
		if r.prepared, err = folang.Parse(metroRefinedQuery); err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
	}
	r.cur = g
	return r, nil
}

// timedAlloc runs fn inside a span and records the bytes it allocated
// under metric.
func (r *metroReplay) timedAlloc(name, metric string, op, parent int, fn func() error) error {
	a0 := allocBytes()
	err := r.tr.call(name, op, parent, fn)
	r.allocMB[metric] = append(r.allocMB[metric], float64(allocBytes()-a0)/1e6)
	return err
}

// step replays one op as generation cur+1.
func (r *metroReplay) step(ctx context.Context, opID int, op metroOp) error {
	root := r.tr.begin("op", opID, -1)
	defer r.tr.end(root)
	p := r.cur
	g := &metroGen{}
	err := r.tr.call("topodb.apply", opID, root, func() error {
		p.release()
		g.in = p.in.Clone()
		return g.in.Add(op.Name, region.MustRect(op.Rect[0], op.Rect[1], op.Rect[2], op.Rect[3]))
	})
	if err != nil {
		return err
	}
	err = r.tr.call("arrange.insert", opID, root, func() error {
		sh, err := arrange.InsertSharded(ctx, p.sh, g.in, op.Name)
		g.sh = sh
		return err
	})
	if err != nil {
		return fmt.Errorf("InsertSharded: %w", err)
	}
	aliased := 0
	for _, nanos := range g.sh.BuildNanos {
		if nanos == 0 {
			aliased++
		}
	}
	r.modes[derivArrangementAliased] += uint64(aliased)
	r.rebuilt = append(r.rebuilt, float64(g.sh.NumShards()-aliased)/float64(g.sh.NumShards()))
	err = r.timedAlloc("arrange.stitch", "arrange.stitch_alloc_mb", opID, root, func() error {
		a, err := arrange.StitchInc(ctx, g.sh, p.sh, p.a)
		g.a = a
		return err
	})
	if err != nil {
		return fmt.Errorf("StitchInc: %w", err)
	}
	if g.a.Prov() != nil {
		r.modes[derivArrangementIncremental]++
	} else {
		r.modes[derivArrangementCold]++
	}
	if r.canonical {
		err = r.tr.call("invariant.delta", opID, root, func() error {
			t, err := invariant.FromArrangementDelta(ctx, g.a, p.t)
			if err == nil {
				r.modes[derivInvariantIncremental]++
			} else {
				r.modes[derivInvariantCold]++
				t, err = invariant.FromArrangementCtx(ctx, g.a)
			}
			g.t = t
			return err
		})
		if err != nil {
			return fmt.Errorf("invariant: %w", err)
		}
		_ = r.timedAlloc("invariant.canonical", "invariant.canonical_alloc_mb", opID, root, func() error {
			r.lastCanon = g.t.Canonical()
			return nil
		})
		r.cur = g
		return nil
	}
	err = r.timedAlloc("folang.universe", "folang.universe_alloc_mb", opID, root, func() error {
		u, err := folang.InsertUniverse(ctx, p.u0, g.a, g.in)
		if err == nil {
			r.modes[derivUniverseIncremental]++
		} else {
			r.modes[derivUniverseCold]++
			u, err = folang.NewUniverseFromArrangementCtx(ctx, g.a, g.in)
		}
		g.u0 = u
		return err
	})
	if err != nil {
		return fmt.Errorf("universe: %w", err)
	}
	var v0, v2 bool
	err = r.tr.call("folang.eval", opID, root, func() error {
		f, err := folang.Parse(op.query())
		if err != nil {
			return err
		}
		if missing := folang.Analyze(f).MissingNames(g.u0); len(missing) > 0 {
			return fmt.Errorf("no region %s", missing[0])
		}
		v0, err = folang.NewEvaluator(g.u0).EvalCtx(ctx, f)
		return err
	})
	if err != nil {
		return fmt.Errorf("eval: %w", err)
	}
	err = r.tr.call("folang.universe_refined", opID, root, func() error {
		u, err := folang.InsertUniverseRefined(ctx, p.u2, g.in, metroRefine, op.Name)
		if err == nil {
			r.modes[derivUniverseRefinedIncremental]++
		} else {
			r.modes[derivUniverseRefinedCold]++
			u, err = folang.NewUniverseCtx(ctx, g.in, metroRefine)
		}
		g.u2 = u
		return err
	})
	if err != nil {
		return fmt.Errorf("refined universe: %w", err)
	}
	err = r.tr.call("folang.eval", opID, root, func() error {
		var err error
		v2, err = folang.NewEvaluator(g.u2).EvalCtx(ctx, r.prepared)
		return err
	})
	if err != nil {
		return fmt.Errorf("refined eval: %w", err)
	}
	r.v0, r.v2 = append(r.v0, v0), append(r.v2, v2)
	r.cur = g
	return nil
}

// metroLayers are the spans whose self times account for a metro op.
var metroLayers = []layer{
	{"topodb.apply", "topodb.apply_ms"},
	{"arrange.insert", "arrange.insert_ms"},
	{"arrange.stitch", "arrange.stitch_ms"},
	{"folang.universe", "folang.universe_ms"},
	{"folang.universe_refined", "folang.universe_refined_ms"},
	{"folang.eval", "folang.eval_ms"},
	{"invariant.delta", "invariant.delta_ms"},
	{"invariant.canonical", "invariant.canonical_ms"},
}

// runMetroTraced runs the library untraced for half the budget, replays
// the same ops through the layers with spans, cross-checks the two, and
// reports the per-layer metrics.
func runMetroTraced(ctx context.Context, cfg config, canonical bool, res *result) error {
	lib, err := runMetroLibrary(ctx, canonical, cfg.seed, 1, cfg.dur/2, 10)
	if err != nil {
		return err
	}
	res.attempted += len(lib.ops) + lib.failed
	res.failed += lib.failed
	bad, err := lib.oracle(ctx)
	if err != nil {
		return err
	}
	res.failed += bad
	n := len(lib.out)
	untraced := make([]float64, n)
	for i, o := range lib.out {
		untraced[i] = ms(o.latency)
	}
	ops, libDeriv := lib.ops, lib.deriv
	libOut := lib.out
	lib = nil
	runtime.GC()

	rp, err := newMetroReplay(ctx, canonical)
	if err != nil {
		return err
	}
	for i, op := range ops {
		if err := rp.step(ctx, i, op); err != nil {
			return fmt.Errorf("replay op %d: %w", i, err)
		}
		if canonical { // hashed outside the op's span
			rp.canon = append(rp.canon, sha256.Sum256([]byte(rp.lastCanon)))
			rp.canonLen = append(rp.canonLen, float64(len(rp.lastCanon)))
		}
	}

	// Cross-check: same answers, and the replay took the same derivation
	// modes the library's counters recorded.
	mismatch := 0
	for i := range ops {
		o := libOut[i]
		if canonical && rp.canon[i] != o.canon || !canonical && (rp.v0[i] != o.v0 || rp.v2[i] != o.v2) {
			mismatch++
		}
	}
	for _, l := range checkModes(libDeriv, rp.modes) {
		mismatch++
		res.note(l)
	}
	for i := range rp.modes {
		if derivIsCold(i) && libDeriv[i] != 0 {
			mismatch++
			res.note(fmt.Sprintf("cross-check: %d cold %s derivations after set-up", libDeriv[i], derivNames[i]))
		}
	}
	if mismatch > 0 {
		res.note(fmt.Sprintf("cross-check: %d mismatches between library and replay", mismatch))
	}
	res.failed += mismatch

	opIDs := make([]int, n)
	for i := range opIDs {
		opIDs[i] = i
	}
	vals := map[string]float64{}
	rp.tr.account(vals, metroLayers, opIDs, untraced)
	for k, v := range rp.coldS {
		vals[k] = v
	}
	vals["arrange.rebuilt_frac"] = median(rp.rebuilt)
	for k, xs := range rp.allocMB {
		vals[k] = median(xs)
	}
	vals["invariant.canonical_bytes"] = median(rp.canonLen)
	setDerivMetrics(vals, libDeriv, n)
	res.layers(vals, n)
	return rp.tr.save(cfg, res)
}

package topodb

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"topodb/internal/arrange"
	"topodb/internal/folang"
	"topodb/internal/invariant"
	"topodb/internal/workload"
)

// The end-to-end guarantee behind the incremental mutation→query pipeline:
// interleaving random Apply batches, every generation's derived artifacts
// — the query universe and the topological invariant — are byte-identical
// (canonical fingerprints / canonical encodings) to a from-scratch build
// of the same region set, for every workload generator and on both sides
// of the shard threshold. The parent link is asserted at each step and the
// derivation counters afterwards, so the test demonstrably exercises the
// incremental path, not a silent cold fallback.
func TestIncrementalArtifactsBytes(t *testing.T) {
	ctx := context.Background()
	for _, shard := range []struct {
		name      string
		threshold int
	}{
		{"monolithic", -1}, // sharding disabled
		{"sharded", 0},     // every snapshot, parents included, shards
	} {
		t.Run(shard.name, func(t *testing.T) {
			old := SetShardThreshold(shard.threshold)
			t.Cleanup(func() { SetShardThreshold(old) })
			for name, in := range equivCases() {
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(len(name))))
					names := in.Names()
					db := NewInstance()
					applyRegions(t, db, in, names[:1])
					s0 := db.Snapshot()
					if _, err := s0.universe(ctx, 0); err != nil {
						t.Fatal(err)
					}
					if _, err := s0.invariantT(ctx); err != nil {
						t.Fatal(err)
					}
					uIncBefore := derivCounters[derivUniverseIncremental].Load()
					tIncBefore := derivCounters[derivInvariantIncremental].Load()
					prev := s0
					k := 1
					for k < len(names) {
						batch := 1 + rng.Intn(3)
						if k+batch > len(names) {
							batch = len(names) - k
						}
						applyRegions(t, db, in, names[k:k+batch])
						k += batch

						s := db.Snapshot()
						if parent, added := s.c.parentLink(); parent == nil || len(added) != batch {
							t.Fatalf("generation %d: no parent link (added=%v)", s.Gen(), added)
						}
						before := ArtifactDerivationCounts()
						u, err := s.universe(ctx, 0)
						if err != nil {
							t.Fatal(err)
						}
						coldU, err := folang.NewUniverse(subSpatial(in, names[:k]), 0)
						if err != nil {
							t.Fatal(err)
						}
						if u.Fingerprint() != coldU.Fingerprint() {
							t.Fatalf("universe fingerprint diverged at %d regions", k)
						}
						ti, err := s.invariantT(ctx)
						if err != nil {
							t.Fatal(err)
						}
						coldT, err := invariant.New(subSpatial(in, names[:k]))
						if err != nil {
							t.Fatal(err)
						}
						if ti.Canonical() != coldT.Canonical() {
							t.Fatalf("canonical invariant diverged at %d regions", k)
						}
						assertWarmDerivations(t, before, prev, s)
						prev = s
					}
					if derivCounters[derivUniverseIncremental].Load() == uIncBefore {
						t.Error("incremental universe derivation never ran")
					}
					if derivCounters[derivInvariantIncremental].Load() == tIncBefore {
						t.Error("incremental invariant derivation never ran")
					}
				})
			}
		})
	}
}

// assertWarmDerivations pins the exact change of every derivation row
// since before across one warm generation s — derived from prev by one
// small Apply — whose universe (k=0) and invariant were read: one
// incremental arrangement, universe and invariant each, no cold build of
// anything, and on the sharded path one aliased tally per shard s shares
// pointer-for-pointer with prev.
func assertWarmDerivations(t *testing.T, before []DerivationCount, prev, s *Snapshot) {
	t.Helper()
	want := make([]uint64, len(before))
	want[derivArrangementIncremental] = 1
	want[derivUniverseIncremental] = 1
	want[derivInvariantIncremental] = 1
	if v, ok := s.c.completed(artifactKey{kind: shardedKind}); ok {
		pv, ok := prev.c.completed(artifactKey{kind: shardedKind})
		if !ok {
			t.Fatal("sharded generation without a sharded parent artifact")
		}
		parentSubs := make(map[*arrange.Arrangement]bool)
		for _, sub := range pv.(*arrange.Sharded).Subs {
			parentSubs[sub] = true
		}
		for _, sub := range v.(*arrange.Sharded).Subs {
			if parentSubs[sub] {
				want[derivArrangementAliased]++
			}
		}
	}
	for i, r := range ArtifactDerivationCounts() {
		if got := r.N - before[i].N; got != want[i] {
			t.Errorf("generation %d: %s/%s (refined=%v) moved by %d, want %d", s.Gen(), r.Kind, r.Mode, r.Refined, got, want[i])
		}
	}
}

// SetIncrementalMax(0) must force the derived artifacts — universe and
// invariant — cold along with the arrangement, and the cold results must
// still match, byte for byte.
func TestDerivedIncrementalMaxKnob(t *testing.T) {
	ctx := context.Background()
	if got := SetIncrementalMax(0); got != defaultIncrementalMax {
		SetIncrementalMax(got)
		t.Fatalf("default incremental max = %d, want %d", got, defaultIncrementalMax)
	}
	t.Cleanup(func() { SetIncrementalMax(defaultIncrementalMax) })

	in := workload.SparseScatter(20)
	names := in.Names()
	db := NewInstance()
	applyRegions(t, db, in, names[:len(names)-1])
	s0 := db.Snapshot()
	if _, err := s0.universe(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s0.invariantT(ctx); err != nil {
		t.Fatal(err)
	}
	applyRegions(t, db, in, names[len(names)-1:])
	s := db.Snapshot()
	uInc := derivCounters[derivUniverseIncremental].Load()
	tInc := derivCounters[derivInvariantIncremental].Load()
	u, err := s.universe(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	ti, err := s.invariantT(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if derivCounters[derivUniverseIncremental].Load() != uInc ||
		derivCounters[derivInvariantIncremental].Load() != tInc {
		t.Fatal("knob 0 still derived an artifact incrementally")
	}
	coldU, err := folang.NewUniverse(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if u.Fingerprint() != coldU.Fingerprint() {
		t.Fatal("cold-forced universe fingerprint diverged")
	}
	coldT, err := invariant.New(in)
	if err != nil {
		t.Fatal(err)
	}
	if ti.Canonical() != coldT.Canonical() {
		t.Fatal("cold-forced invariant encoding diverged")
	}
}

// The fixed derivation-count rows must enumerate every (kind, mode) pair
// exactly once, in a stable order, including zero rows — serving tiers
// render them positionally.
func TestArtifactDerivationCountRows(t *testing.T) {
	rows := ArtifactDerivationCounts()
	want := []string{
		"arrangement/cold", "arrangement/incremental", "arrangement/aliased",
		"universe/cold", "universe/incremental",
		"universe/cold/refined", "universe/incremental/refined",
		"invariant/cold", "invariant/incremental",
		"sinvariant/cold",
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		got := r.Kind + "/" + r.Mode
		if r.Refined {
			got += "/refined"
		}
		if got != want[i] {
			t.Fatalf("row %d = %s, want %s", i, got, want[i])
		}
	}
}

// Concurrent readers racing a writer over the parent-linked universe and
// invariant slots: every reader must observe internally consistent
// artifacts whose region sets match their snapshot's generation. Run
// under -race this exercises the genCache parent link, provenance
// release, and the canonMu guarding transported canonical starts.
func TestIncrementalArtifactStress(t *testing.T) {
	ctx := context.Background()
	db := NewInstance()
	if err := db.AddRect("base", 0, 0, 10, 10); err != nil {
		t.Fatal(err)
	}
	const writers = 24
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := db.Snapshot()
				u, err := s.universe(ctx, 0)
				if err != nil {
					t.Error(err)
					return
				}
				for _, n := range s.Names() {
					if u.Region(n) == nil {
						t.Errorf("universe is missing snapshot region %s", n)
						return
					}
				}
				ti, err := s.invariantT(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				if ti.Canonical() == "" {
					t.Error("empty canonical encoding")
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		if err := db.AddRect(fmt.Sprintf("w%03d", w), int64(20*w+20), 0, int64(20*w+30), 10); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

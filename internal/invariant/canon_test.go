package invariant

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"topodb/internal/arrange"
	"topodb/internal/region"
	"topodb/internal/spatial"
	"topodb/internal/workload"
	"topodb/internal/xform"
)

// degenerateRects decodes data, five bytes per rectangle, into an instance
// of at most six small-integer rectangles. The first byte of each group
// picks how the rectangle relates to an earlier one: free placement, a
// shared edge, a point contact at a corner, nesting, or a duplicate shape.
// It returns nil when data holds no complete group.
func degenerateRects(data []byte) *spatial.Instance {
	type box struct{ x0, y0, x1, y1 int64 }
	var boxes []box
	for i := 0; i+5 <= len(data) && len(boxes) < 6; i += 5 {
		g := data[i : i+5]
		x, y := int64(g[1]%10), int64(g[2]%10)
		b := box{x, y, x + 1 + int64(g[3]%5), y + 1 + int64(g[4]%5)}
		if len(boxes) > 0 {
			p := boxes[int(g[1])%len(boxes)]
			w, h := b.x1-b.x0, b.y1-b.y0
			switch g[0] % 5 {
			case 1: // shares (part of) p's right edge
				b = box{p.x1, p.y0 + int64(g[2]%2), p.x1 + w, p.y0 + int64(g[2]%2) + h}
			case 2: // touches p's top-right corner only
				b = box{p.x1, p.y1, p.x1 + w, p.y1 + h}
			case 3: // nested in p, or p again when p is too thin
				if p.x1-p.x0 >= 3 && p.y1-p.y0 >= 3 {
					b = box{p.x0 + 1, p.y0 + 1, p.x1 - 1, p.y1 - 1}
				} else {
					b = p
				}
			case 4: // duplicate shape
				b = p
			}
		}
		boxes = append(boxes, b)
	}
	if len(boxes) == 0 {
		return nil
	}
	in := spatial.New()
	for i, b := range boxes {
		in.MustAdd(fmt.Sprintf("R%d", i), region.MustRect(b.x0, b.y0, b.x1, b.y1))
	}
	return in
}

// homeomorphisms are the maps every canonical encoding must be invariant
// under: a translation, a rotation and an orientation-reversing
// reflection.
func homeomorphisms() []xform.Map {
	return []xform.Map{xform.Translation(31, -17), xform.Rotate90(), xform.Reflect()}
}

func mustRef(t testing.TB, ti *T) {
	t.Helper()
	if got, want := ti.Canonical(), refCanonical(ti); got != want {
		t.Fatalf("Canonical differs from the reference encoder\n got: %.300s\nwant: %.300s", got, want)
	}
}

// checkCanonical asserts that in's canonical encoding matches the
// reference and that the images of in under every homeomorphism are
// equivalent to it (and match the reference too).
func checkCanonical(t testing.TB, in *spatial.Instance) {
	t.Helper()
	ti, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	mustRef(t, ti)
	for _, m := range homeomorphisms() {
		img, err := xform.Apply(m, in)
		if err != nil {
			t.Fatal(err)
		}
		tm, err := New(img)
		if err != nil {
			t.Fatal(err)
		}
		mustRef(t, tm)
		if !Equivalent(ti, tm) {
			t.Fatalf("%s: image is not equivalent to the instance", m.Name)
		}
	}
}

// Canonical must render exactly the bytes of the reference encoder: on
// the golden cases, on random degenerate instances and their images, and
// along a chain of delta-derived invariants whose untouched components
// encode from transported starts.
func TestCanonicalMatchesReference(t *testing.T) {
	t.Run("golden_cases", func(t *testing.T) {
		cases := canonCases()
		names := make([]string, 0, len(cases))
		for n := range cases {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			ti, err := cases[n]()
			if err != nil {
				t.Fatalf("%s: %v", n, err)
			}
			mustRef(t, ti)
		}
	})
	t.Run("random", func(t *testing.T) {
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			data := make([]byte, 5*(3+seed%4))
			rng.Read(data)
			checkCanonical(t, degenerateRects(data))
		}
	})
	t.Run("delta_chains", func(t *testing.T) {
		// Parents canonicalized first transport their winning chirality,
		// which may be the mirror one, as the chirality stored first.
		ctx := context.Background()
		for name, in := range deltaCases() {
			names := in.Names()
			k := (len(names) + 1) / 2
			a, err := arrange.Build(restrict(in, names[:k]))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			parent, err := FromArrangement(a)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			mustRef(t, parent)
			for ; k < len(names); k++ {
				next, err := arrange.Insert(ctx, a, restrict(in, names[:k+1]), names[k])
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				inc, err := FromArrangementDelta(ctx, next, parent)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				mustRef(t, inc)
				a, parent = next, inc
			}
		}
	})
	t.Run("metro_delta_chain", func(t *testing.T) {
		ctx := context.Background()
		in := workload.MetroGrid(256, 2, 10)
		a, err := arrange.Build(in)
		if err != nil {
			t.Fatal(err)
		}
		parent, err := FromArrangement(a)
		if err != nil {
			t.Fatal(err)
		}
		mustRef(t, parent)
		const span = 88 // 8×8 districts at pitch 11
		rng := rand.New(rand.NewSource(1))
		seeded := 0
		for step := 0; step < 30; step++ {
			name := fmt.Sprintf("Zd%03d", step)
			x, y := rng.Int63n(span), rng.Int63n(span)
			in = in.Clone()
			in.MustAdd(name, region.MustRect(x, y, x+1+rng.Int63n(6), y+1+rng.Int63n(6)))
			next, err := arrange.Insert(ctx, a, in, name)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			inc, err := FromArrangementDelta(ctx, next, parent)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			for _, s := range inc.seeds[0] {
				if s.ok {
					seeded++
				}
			}
			mustRef(t, inc)
			a, parent = next, inc
		}
		if seeded == 0 {
			t.Fatal("no transported start was exercised")
		}
	})
}

// validate must refuse the two malformed structures the encoder cannot
// traverse: an edge end missing from its vertex's rotation, and a
// vertex-free component with more than one edge.
func TestValidateRejectsCorruptT(t *testing.T) {
	ti, err := New(spatial.Fig1b())
	if err != nil {
		t.Fatal(err)
	}
	if err := ti.validate(); err != nil {
		t.Fatalf("valid invariant rejected: %v", err)
	}
	for vi := range ti.Verts {
		if rot := ti.Verts[vi].Rot; len(rot) > 1 {
			ti.Verts[vi].Rot = append(rot[:0:0], rot[1:]...)
			break
		}
	}
	if err := ti.validate(); err == nil {
		t.Fatal("validate accepted a rotation with a dropped edge end")
	}

	ti, err = New(spatial.New().
		MustAdd("A", region.MustRect(0, 0, 4, 4)).
		MustAdd("B", region.MustRect(10, 0, 14, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if err := ti.validate(); err != nil {
		t.Fatalf("valid invariant rejected: %v", err)
	}
	c := &ti.Comps[0]
	if len(c.Verts) != 0 || len(c.Edges) != 1 {
		t.Fatalf("expected a vertex-free single-curve component, got %d verts %d edges", len(c.Verts), len(c.Edges))
	}
	c.Edges = append(c.Edges, ti.Comps[1].Edges[0])
	if err := ti.validate(); err == nil {
		t.Fatal("validate accepted a vertex-free component with two edges")
	}
}

// One Canonical call on a delta-derived metro invariant may allocate at
// most four times the encoding's length: at most one arena per chirality,
// the final string, and small scratch. A per-label allocation (as from
// Label.Key) pushes it past the budget.
func TestCanonicalAllocBudget(t *testing.T) {
	ctx := context.Background()
	in := workload.MetroGrid(512, 2, 10)
	a, err := arrange.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := FromArrangement(a)
	if err != nil {
		t.Fatal(err)
	}
	parent.Canonical()
	in = in.Clone()
	in.MustAdd("Zd", region.MustRect(1, 1, 6, 3))
	next, err := arrange.Insert(ctx, a, in, "Zd")
	if err != nil {
		t.Fatal(err)
	}
	inc, err := FromArrangementDelta(ctx, next, parent)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	enc := inc.Canonical()
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("Canonical: %d bytes encoded, %d bytes allocated (%.2fx)", len(enc), alloc, float64(alloc)/float64(len(enc)))
	if alloc > 4*uint64(len(enc)) {
		t.Fatalf("Canonical allocated %d bytes for a %d-byte encoding (%.2fx > 4x)", alloc, len(enc), float64(alloc)/float64(len(enc)))
	}
}

// FuzzCanonical decodes small-integer rectangles biased toward shared
// edges, point contacts, nesting and duplicate shapes (degenerateRects),
// and checks the canonical encoding against the reference encoder and its
// invariance under translation, 90° rotation and reflection.
func FuzzCanonical(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := degenerateRects(data)
		if in == nil {
			return
		}
		checkCanonical(t, in)
	})
}

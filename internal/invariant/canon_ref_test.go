package invariant

import (
	"fmt"
	"sort"
	"strings"
)

// This file keeps the original fmt-and-string canonical encoder as the
// reference oracle for Canonical: the same traversal and minimization,
// written for clarity rather than speed, with no caching and no
// transported starts (every component is minimized over all its
// edge-ends). Canonical must match it byte for byte.

// refCanonical is the reference canonical encoding of t.
func refCanonical(t *T) string {
	plus := refEncodeInstance(t, false)
	minus := refEncodeInstance(t, true)
	if plus <= minus {
		return plus
	}
	return minus
}

// refEncodeInstance encodes the whole instance under a fixed chirality.
func refEncodeInstance(t *T, mirror bool) string {
	// Encode components bottom-up by depth.
	order := make([]int, len(t.Comps))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return t.Comps[order[i]].Depth > t.Comps[order[j]].Depth
	})
	compEnc := make([]string, len(t.Comps))
	for _, ci := range order {
		compEnc[ci] = refEncodeComp(t, ci, mirror, compEnc)
	}
	// The instance is the multiset of root component encodings.
	var roots []string
	for ci := range t.Comps {
		if t.Comps[ci].ParentFace == t.Exterior {
			roots = append(roots, compEnc[ci])
		}
	}
	sort.Strings(roots)
	return fmt.Sprintf("I[%d]{%s}", len(t.Names), strings.Join(roots, "|"))
}

// refEncodeComp canonically encodes one component given the encodings of
// all deeper components (compEnc), under the given chirality.
func refEncodeComp(t *T, ci int, mirror bool, compEnc []string) string {
	c := &t.Comps[ci]
	// faceEnc returns the face payload: label plus sorted children.
	faceEnc := func(fi int) string {
		f := &t.Faces[fi]
		var kids []string
		for _, ch := range f.Children {
			kids = append(kids, compEnc[ch])
		}
		sort.Strings(kids)
		return f.Label.Key() + "{" + strings.Join(kids, "|") + "}"
	}

	if len(c.Verts) == 0 {
		// A vertex-free closed curve: one edge, an inner face.
		if len(c.Edges) != 1 {
			panic("invariant: vertex-free component with multiple edges")
		}
		e := t.Edges[c.Edges[0]]
		inner := e.FL
		if t.Faces[inner].Comp != ci {
			inner = e.FR
		}
		return "O(" + e.Label.Key() + ";" + faceEnc(inner) + ")"
	}

	best := ""
	for _, vi := range c.Verts {
		for k := range t.Verts[vi].Rot {
			enc := refEncodeFrom(t, ci, vi, k, mirror, faceEnc)
			if best == "" || enc < best {
				best = enc
			}
		}
	}
	return best
}

// refEncodeFrom produces a deterministic encoding of component ci starting
// from rotation position k at vertex vi.
func refEncodeFrom(t *T, ci, vi, k int, mirror bool, faceEnc func(int) string) string {
	vNum := map[int]int{}  // vertex -> canonical number
	eNum := map[int]int{}  // edge -> canonical number
	fNum := map[int]int{}  // face -> canonical number
	var fOrder []int       // faces in first-appearance order
	entry := map[int]End{} // vertex -> entry end (end at that vertex)
	var queue []int

	vNum[vi] = 0
	entry[vi] = t.Verts[vi].Rot[k]
	queue = append(queue, vi)

	var b strings.Builder
	faceOf := func(fi int) int {
		if n, ok := fNum[fi]; ok {
			return n
		}
		n := len(fNum)
		fNum[fi] = n
		fOrder = append(fOrder, fi)
		return n
	}

	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		rot := t.Verts[v].Rot
		// Find the entry end's position in the rotation.
		start := -1
		for i, en := range rot {
			if en == entry[v] {
				start = i
				break
			}
		}
		if start == -1 {
			panic("invariant: entry end not in rotation")
		}
		fmt.Fprintf(&b, "V%s:", t.Verts[v].Label.Key())
		n := len(rot)
		for step := 0; step < n; step++ {
			var en End
			if mirror {
				en = rot[((start-step)%n+n)%n]
			} else {
				en = rot[(start+step)%n]
			}
			e := &t.Edges[en.Edge]
			num, seenEdge := eNum[en.Edge]
			if !seenEdge {
				num = len(eNum)
				eNum[en.Edge] = num
			}
			// Face to the left of this outgoing end; under mirror the
			// left face is the stored right face.
			var fl int
			if (en.Side == 0) != mirror {
				fl = e.FL
			} else {
				fl = e.FR
			}
			// Note: an edge end appears exactly once in the rotation
			// system, so the second encounter of an edge is always its
			// other end; the raw side index is construction-dependent
			// and must not be emitted.
			fmt.Fprintf(&b, "e%d", num)
			if !seenEdge {
				fmt.Fprintf(&b, "(%s)", e.Label.Key())
			}
			fmt.Fprintf(&b, "f%d", faceOf(fl))
			other := OtherEnd(en)
			w := t.EndVertex(other)
			if wn, ok := vNum[w]; ok {
				fmt.Fprintf(&b, ">v%d;", wn)
			} else {
				vNum[w] = len(vNum)
				entry[w] = other
				queue = append(queue, w)
				fmt.Fprintf(&b, ">v%d!;", vNum[w])
			}
		}
		b.WriteByte('|')
	}
	// Face table in first-appearance order. Faces owned by this component
	// carry their payload; the parent face is the marker "P".
	b.WriteString("F:")
	for _, fi := range fOrder {
		if t.Faces[fi].Comp == ci {
			b.WriteString(faceEnc(fi))
		} else {
			b.WriteString("P")
		}
		b.WriteByte(',')
	}
	return b.String()
}

package invariant

import (
	"bytes"
	"sort"
	"strconv"
	"strings"
)

// This file implements the canonical form used to decide isomorphism of
// invariants — and hence, by Theorem 3.4, topological equivalence of
// instances. The encoding is a deterministic traversal of each component's
// rotation system, minimized over all starting edge-ends; nested components
// are encoded bottom-up into the faces that contain them; and the whole
// instance is minimized over the two global chiralities (every plane
// homeomorphism is isotopic to the identity or to a single reflection, so
// orientation must flip for all components together — this is exactly the
// case analysis in the paper's proof of Theorem 3.4).
//
// The encoding of an instance with root components R1 < … < Rk (sorted
// bytewise) is "I[n]{R1|…|Rk}" for n region names. A component is either
// a vertex-free closed curve, "O(edge label;inner face)", or the minimal
// traversal (see appendFrom). A face is "label{C1|…|Cm}" over its sorted
// nested components. Labels render as arrange.Label keys.
//
// The encoder writes every byte into append-only per-chirality arenas,
// sized up front from the cell counts and label widths, so an output byte
// is written at most a few times: into its component's encoding, into the
// encoding of each component it is nested in, and into the final string.

// canonStart records a minimizing traversal start for one component under
// one chirality: the T vertex index and the rotation position. Recorded
// starts let FromArrangementDelta skip the start minimization for
// components a delta provably left untouched.
type canonStart struct {
	vert, k int32
	ok      bool
}

// Canonical returns the canonical encoding of the invariant. Two instances
// over the same names are topologically equivalent iff their canonical
// encodings are equal. Canonical is safe for concurrent use: the lazily
// computed encoding is guarded, so a T shared by a derived-artifact cache
// may be canonicalized from many goroutines.
func (t *T) Canonical() string {
	t.canonMu.Lock()
	defer t.canonMu.Unlock()
	if t.canon == "" {
		t.canon = t.canonicalize()
	}
	return t.canon
}

// Equivalent reports whether two invariants describe topologically
// equivalent instances (requires identical name sets; the isomorphism is
// the identity on names).
func Equivalent(a, b *T) bool {
	if len(a.Names) != len(b.Names) {
		return false
	}
	for i := range a.Names {
		if a.Names[i] != b.Names[i] {
			return false
		}
	}
	return a.Canonical() == b.Canonical()
}

// canonicalize encodes the instance under both chiralities, records their
// minimizing starts, and renders the smaller encoding (the positive one on
// a tie). Callers hold canonMu.
//
// Only one chirality is stored up front: t.win, the parent generation's
// winner when FromArrangementDelta transported it. The other chirality's
// roots are encoded one at a time into reused arena space and compared
// with the same components' stored encodings. Component encodings are
// self-delimiting (labels have fixed width, numbers end at a non-digit,
// braces and the face count close every part), so no root encoding is a
// proper prefix of another, and the instance comparison is the
// lexicographic comparison of the sorted root lists. Roots that encode
// alike under both chiralities are common to both lists, so the smallest
// differing root on each side decides it, unless those two are equal.
// Only then, or when the other chirality wins, is it stored too, from the
// starts its first pass recorded, one traversal per component.
func (t *T) canonicalize() string {
	e := newEncoder(t)
	bounds := e.bounds()
	a, b := t.win, 1-t.win
	var enc [2][][]byte
	rootsA := e.encodeRoots(a, t.seeds[a], bounds)
	enc[a] = joinRoots(rootsA)
	minB, minA := e.scanRoots(b, t.seeds[b], bounds, rootsA)
	m := min(len(minA), len(minB))
	if minB != nil && bytes.Compare(minB[:m], minA[:m]) <= 0 {
		enc[b] = joinRoots(e.encodeRoots(b, t.bestStart[b], bounds))
		t.win = 0
		if compareJoined(enc[1], enc[0]) < 0 {
			t.win = 1
		}
	}
	return assemble(len(t.Names), enc[t.win])
}

// span is the byte range [off, end) of one encoding in an arena.
type span struct{ off, end int }

// numbering hands out first-appearance numbers to the cells of one kind
// during a traversal. A cell's number is current only while its stamp
// equals the encoder's traversal stamp, so starting a traversal clears
// every numbering in O(1).
type numbering struct {
	stamp []uint32
	num   []int32
	next  int32
}

func newNumbering(n int) numbering {
	return numbering{stamp: make([]uint32, n), num: make([]int32, n)}
}

// lookup returns cell i's number in traversal cur, numbering it first if
// it has none yet (seen reports whether it had one).
func (nb *numbering) lookup(i int, cur uint32) (num int32, seen bool) {
	if nb.stamp[i] == cur {
		return nb.num[i], true
	}
	nb.stamp[i], nb.num[i] = cur, nb.next
	nb.next++
	return nb.num[i], false
}

// encoder holds one Canonical call's scratch state. The arena holds the
// component encodings of the chirality being encoded; faceBuf holds the
// memoised face encodings of the component being minimized.
type encoder struct {
	t      *T
	mirror bool
	arena  []byte
	comp   []span // component encodings in arena

	cur        uint32 // traversal stamp
	vn, en, fn numbering
	entry      []int32 // vertex -> rotation position of its entry end
	queue      []int32
	fOrder     []int32 // faces in first-appearance order
	kids       []span

	memo     bool // faces render through faceBuf (minimization in progress)
	faceBuf  []byte
	faceSpan []span
	faceCur  []uint32 // faceSpan[fi] is current while faceCur[fi] == memoGen
	memoGen  uint32   // bumped per minimized component
	cand     []byte   // candidate and best traversals during minimization
	best     []byte
	depthOrd []int // components, deepest first
}

func newEncoder(t *T) *encoder {
	order := make([]int, len(t.Comps))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return t.Comps[order[i]].Depth > t.Comps[order[j]].Depth
	})
	return &encoder{
		t:        t,
		comp:     make([]span, len(t.Comps)),
		vn:       newNumbering(len(t.Verts)),
		en:       newNumbering(len(t.Edges)),
		fn:       newNumbering(len(t.Faces)),
		entry:    make([]int32, len(t.Verts)),
		faceSpan: make([]span, len(t.Faces)),
		faceCur:  make([]uint32, len(t.Faces)),
		depthOrd: order,
	}
}

// encodeComps encodes every component under chirality idx (1 is the
// mirror image), deepest first, into a fresh arena of the given capacity,
// taking a component's start from starts where one is recorded and
// recording the minimizing starts. root runs after each root component.
func (e *encoder) encodeComps(idx int, starts []canonStart, size int, root func(ci int)) {
	t := e.t
	e.mirror = idx == 1
	e.arena = make([]byte, 0, size)
	if t.bestStart[idx] == nil {
		t.bestStart[idx] = make([]canonStart, len(t.Comps))
	}
	for _, ci := range e.depthOrd {
		e.encodeComp(ci, idx, starts)
		if t.Comps[ci].ParentFace == t.Exterior {
			root(ci)
		}
	}
}

// encodeRoots stores every component's encoding under chirality idx and
// returns the root encodings indexed by component (nil for the others).
func (e *encoder) encodeRoots(idx int, starts []canonStart, bounds []int) [][]byte {
	size := 0
	for _, b := range bounds {
		size += b
	}
	roots := make([][]byte, len(bounds))
	e.encodeComps(idx, starts, size, func(ci int) { roots[ci] = e.at(e.comp[ci]) })
	return roots
}

// scanRoots encodes every component under chirality idx but stores only
// the nested ones: each root is encoded into reused arena space and
// compared with other[ci], the same component under the other chirality.
// Over the roots whose two encodings differ, it returns the smallest
// encoding under idx and the smallest in other (nil, nil when none differ).
func (e *encoder) scanRoots(idx int, starts []canonStart, bounds []int, other [][]byte) (minIdx, minOther []byte) {
	size, maxRoot := 0, 0
	for ci, b := range bounds {
		if other[ci] == nil {
			size += b
		} else {
			maxRoot = max(maxRoot, b)
		}
	}
	e.encodeComps(idx, starts, size+maxRoot, func(ci int) {
		s := e.comp[ci]
		if enc := e.at(s); !bytes.Equal(enc, other[ci]) {
			if minIdx == nil || bytes.Compare(enc, minIdx) < 0 {
				minIdx = append(minIdx[:0], enc...)
			}
			if minOther == nil || bytes.Compare(other[ci], minOther) < 0 {
				minOther = other[ci]
			}
		}
		e.arena = e.arena[:s.off]
	})
	return minIdx, minOther
}

// at returns the arena bytes of s.
func (e *encoder) at(s span) []byte { return e.arena[s.off:s.end] }

// encodeComp appends component ci's canonical encoding to the arena. Every
// deeper component is already encoded.
func (e *encoder) encodeComp(ci, idx int, starts []canonStart) {
	t := e.t
	c := &t.Comps[ci]
	off := len(e.arena)
	switch s := starts; {
	case len(c.Verts) == 0:
		// A vertex-free closed curve: one edge, an inner face (validate
		// guarantees the single edge).
		ed := &t.Edges[c.Edges[0]]
		inner := ed.FL
		if t.Faces[inner].Comp != ci {
			inner = ed.FR
		}
		e.arena = append(e.arena, "O("...)
		e.arena = ed.Label.AppendKey(e.arena)
		e.arena = append(e.arena, ';')
		e.arena = e.appendFace(e.arena, inner)
		e.arena = append(e.arena, ')')
	case s != nil && s[ci].ok:
		// A recorded start is minimal: either this call's first pass
		// found it, or it was transported from the parent generation
		// (FromArrangementDelta) for an untouched component, whose
		// encoding is the parent's with every label key widened by the
		// component's uniform added-region suffix, which preserves every
		// comparison the parent's minimization made. One traversal
		// instead of one per edge-end.
		t.bestStart[idx][ci] = s[ci]
		e.arena = e.appendFrom(e.arena, ci, int(s[ci].vert), int(s[ci].k))
	default:
		// Minimize over every start. Each owned face renders once into
		// faceBuf and is copied into every candidate.
		e.memo, e.faceBuf = true, e.faceBuf[:0]
		e.memoGen++
		var bs canonStart
		for _, vi := range c.Verts {
			for k := range t.Verts[vi].Rot {
				e.cand = e.appendFrom(e.cand[:0], ci, vi, k)
				if !bs.ok || bytes.Compare(e.cand, e.best) < 0 {
					e.cand, e.best = e.best, e.cand
					bs = canonStart{vert: int32(vi), k: int32(k), ok: true}
				}
			}
		}
		e.memo = false
		t.bestStart[idx][ci] = bs
		e.arena = append(e.arena, e.best...)
	}
	e.comp[ci] = span{off, len(e.arena)}
}

// appendFace appends face fi's payload — its label and its sorted nested
// components — to dst.
func (e *encoder) appendFace(dst []byte, fi int) []byte {
	if !e.memo {
		return e.renderFace(dst, fi)
	}
	if e.faceCur[fi] != e.memoGen {
		off := len(e.faceBuf)
		e.faceBuf = e.renderFace(e.faceBuf, fi)
		e.faceSpan[fi], e.faceCur[fi] = span{off, len(e.faceBuf)}, e.memoGen
	}
	s := e.faceSpan[fi]
	return append(dst, e.faceBuf[s.off:s.end]...)
}

func (e *encoder) renderFace(dst []byte, fi int) []byte {
	f := &e.t.Faces[fi]
	dst = f.Label.AppendKey(dst)
	dst = append(dst, '{')
	kids := e.kids[:0]
	for _, ch := range f.Children {
		kids = append(kids, e.comp[ch])
	}
	sort.Slice(kids, func(i, j int) bool { return bytes.Compare(e.at(kids[i]), e.at(kids[j])) < 0 })
	for i, s := range kids {
		if i > 0 {
			dst = append(dst, '|')
		}
		dst = append(dst, e.at(s)...)
	}
	e.kids = kids
	return append(dst, '}')
}

// appendFrom appends the deterministic encoding of component ci starting
// from rotation position k at vertex vi: a breadth-first walk that lists,
// per vertex, its label and every outgoing edge-end in rotation order
// (reversed under mirror) as edge number (label on first sight), left
// face number and head vertex number ("!" on first sight), then the face
// table in first-appearance order, where the parent face is "P".
func (e *encoder) appendFrom(dst []byte, ci, vi, k int) []byte {
	t := e.t
	e.cur++
	if e.cur == 0 { // the stamp wrapped: clear every numbering
		for _, nb := range []*numbering{&e.vn, &e.en, &e.fn} {
			clear(nb.stamp)
		}
		e.cur = 1
	}
	e.vn.next, e.en.next, e.fn.next = 0, 0, 0
	e.vn.lookup(vi, e.cur)
	e.entry[vi] = int32(k)
	queue := append(e.queue[:0], int32(vi))
	fOrder := e.fOrder[:0]

	for qi := 0; qi < len(queue); qi++ {
		v := int(queue[qi])
		rot := t.Verts[v].Rot
		start := int(e.entry[v])
		dst = append(dst, 'V')
		dst = t.Verts[v].Label.AppendKey(dst)
		dst = append(dst, ':')
		n := len(rot)
		for step := 0; step < n; step++ {
			var en End
			if e.mirror {
				en = rot[((start-step)%n+n)%n]
			} else {
				en = rot[(start+step)%n]
			}
			ed := &t.Edges[en.Edge]
			num, seenEdge := e.en.lookup(en.Edge, e.cur)
			// Face to the left of this outgoing end; under mirror the
			// left face is the stored right face.
			fl := ed.FR
			if (en.Side == 0) != e.mirror {
				fl = ed.FL
			}
			// An edge end appears exactly once in the rotation system, so
			// the second encounter of an edge is always its other end; the
			// raw side index is construction-dependent and not emitted.
			dst = append(dst, 'e')
			dst = strconv.AppendInt(dst, int64(num), 10)
			if !seenEdge {
				dst = append(dst, '(')
				dst = ed.Label.AppendKey(dst)
				dst = append(dst, ')')
			}
			fnum, seenFace := e.fn.lookup(fl, e.cur)
			if !seenFace {
				fOrder = append(fOrder, int32(fl))
			}
			dst = append(dst, 'f')
			dst = strconv.AppendInt(dst, int64(fnum), 10)
			other := OtherEnd(en)
			w := t.EndVertex(other)
			wn, seenVert := e.vn.lookup(w, e.cur)
			dst = append(dst, ">v"...)
			dst = strconv.AppendInt(dst, int64(wn), 10)
			if !seenVert {
				e.entry[w] = t.rotPos[2*other.Edge+other.Side]
				queue = append(queue, int32(w))
				dst = append(dst, '!')
			}
			dst = append(dst, ';')
		}
		dst = append(dst, '|')
	}
	dst = append(dst, "F:"...)
	for _, fi := range fOrder {
		if t.Faces[fi].Comp == ci {
			dst = e.appendFace(dst, int(fi))
		} else {
			dst = append(dst, 'P')
		}
		dst = append(dst, ',')
	}
	e.queue, e.fOrder = queue, fOrder
	return dst
}

// bounds returns, per component, an upper bound on its encoding's length.
// Numbers are bounded by the digits of the component's cell counts;
// everything else is exact. Deeper components are bounded first, since a
// face's bound includes its children's.
func (e *encoder) bounds() []int {
	t := e.t
	nf := make([]int, len(t.Comps))    // owned faces
	faceB := make([]int, len(t.Comps)) // owned faces' bytes: label, braces, comma, children
	for fi := range t.Faces {
		if c := t.Faces[fi].Comp; c >= 0 {
			nf[c]++
			faceB[c] += len(t.Faces[fi].Label) + len("{},")
		}
	}
	bound := make([]int, len(t.Comps))
	for _, ci := range e.depthOrd {
		c := &t.Comps[ci]
		b := faceB[ci]
		if len(c.Verts) == 0 {
			b += len("O(;)") + len(t.Edges[c.Edges[0]].Label)
		} else {
			ends := 0
			for _, vi := range c.Verts {
				b += len("V:|") + len(t.Verts[vi].Label)
				ends += len(t.Verts[vi].Rot)
			}
			for _, ei := range c.Edges {
				b += len("()") + len(t.Edges[ei].Label)
			}
			// Per end "e#f#>v#!;", where faces number up to the owned
			// ones plus the parent; the face table adds "F:" and "P,".
			b += ends*(len("ef>v!;")+digits(len(c.Edges))+digits(nf[ci]+1)+digits(len(c.Verts))) + len("F:P,")
		}
		bound[ci] = b
		if pf := c.ParentFace; pf != t.Exterior {
			if p := t.Faces[pf].Comp; p >= 0 {
				faceB[p] += b + len("|")
			}
		}
	}
	return bound
}

// digits is the decimal length of the largest number below n.
func digits(n int) int {
	d := 1
	for m := n - 1; m >= 10; m /= 10 {
		d++
	}
	return d
}

// joinRoots sorts the root encodings (skipping nil entries) and lays them
// out as the pieces of "R1|…|Rk}", the instance encoding after its
// "I[n]{" prefix.
func joinRoots(roots [][]byte) [][]byte {
	sorted := make([][]byte, 0, len(roots))
	for _, r := range roots {
		if r != nil {
			sorted = append(sorted, r)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })
	pieces := make([][]byte, 0, 2*len(sorted)+1)
	for i, r := range sorted {
		if i > 0 {
			pieces = append(pieces, []byte("|"))
		}
		pieces = append(pieces, r)
	}
	return append(pieces, []byte("}"))
}

// compareJoined orders the concatenations of two piece lists bytewise
// without building them.
func compareJoined(a, b [][]byte) int {
	var x, y []byte
	for {
		for len(x) == 0 && len(a) > 0 {
			x, a = a[0], a[1:]
		}
		for len(y) == 0 && len(b) > 0 {
			y, b = b[0], b[1:]
		}
		if len(x) == 0 || len(y) == 0 {
			return len(x) - len(y)
		}
		m := min(len(x), len(y))
		if c := bytes.Compare(x[:m], y[:m]); c != 0 {
			return c
		}
		x, y = x[m:], y[m:]
	}
}

// assemble renders "I[n]{" followed by the pieces into one string of
// exact size.
func assemble(n int, pieces [][]byte) string {
	size := len("I[]{") + digits(n+1)
	for _, p := range pieces {
		size += len(p)
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString("I[")
	b.WriteString(strconv.Itoa(n))
	b.WriteString("]{")
	for _, p := range pieces {
		b.Write(p)
	}
	return b.String()
}

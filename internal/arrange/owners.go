package arrange

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Owners is an interned owner-set handle: a small integer naming one
// canonical set of region indices inside an OwnerPool (region i owns an
// edge when the edge lies on i's boundary). Handles are ==-comparable
// within their pool — the pool canonicalizes, so equal handles mean equal
// sets and vice versa, which is what the invariant's edge-chain merge and
// Insert's union paths rely on — while the sets themselves are
// variable-width word slices, so the region count is bounded only by the
// configurable budget (SetRegionBudget), not by a compile-time array size.
//
// The zero handle is always the empty set (scaffold edges), so zero-valued
// Owners are meaningful without a pool.
type Owners uint32

// NoOwners is the empty owner set, valid in every pool.
const NoOwners Owners = 0

// IsEmpty reports whether the set has no owners (scaffold edges).
func (o Owners) IsEmpty() bool { return o == NoOwners }

// OwnerPool canonicalizes owner sets into Owners handles. A pool belongs
// to one arrangement: it is mutated only during that arrangement's
// construction (single-goroutine) and is read-only afterwards, so
// concurrent readers of a finished arrangement need no locking. An
// incremental derivation (Insert) never extends the parent's pool — it
// clones it (cheap: the interned word slices are immutable and shared) and
// extends the clone, so snapshots of older generations keep reading their
// own pool untouched.
//
// Sets are stored as dense word slices, so one interned set costs
// O(maxIndex/64) words (plus an equal-size map key): with S distinct sets
// the pool costs O(S · n/64) memory, which for the singleton-dominated
// pools real arrangements produce is O(n²/64) at n regions — ~2 MB of
// words at the default 4096 budget, negligible next to the cell complex.
// Budgets far past that (10⁵+) would want a sparse representation for
// high-index sets; see the region-budget notes in the README.
//
// topolint:frozen — once an arrangement is published its pool is
// read-only; the only sanctioned writer is the construction-phase intern.
type OwnerPool struct {
	sets  [][]uint64        // handle -> canonical words (trailing zero words trimmed)
	index map[string]Owners // canonical byte key -> handle
}

// NewOwnerPool returns a pool holding only the empty set at handle 0.
func NewOwnerPool() *OwnerPool {
	return &OwnerPool{
		sets:  [][]uint64{nil},
		index: map[string]Owners{"": NoOwners},
	}
}

// Clone returns an independent pool with the same interned sets at the
// same handles. The word slices are shared — they are immutable once
// interned — so a clone costs one slice-header copy per set plus the map.
func (p *OwnerPool) Clone() *OwnerPool {
	q := &OwnerPool{
		sets:  append(make([][]uint64, 0, len(p.sets)), p.sets...),
		index: make(map[string]Owners, len(p.index)),
	}
	for k, v := range p.index {
		q.index[k] = v
	}
	return q
}

// Len returns the number of distinct interned sets (including the empty
// set).
func (p *OwnerPool) Len() int { return len(p.sets) }

// ownerKey packs canonical words into the interning map key.
func ownerKey(words []uint64) string {
	b := make([]byte, 8*len(words))
	for i, w := range words {
		for j := 0; j < 8; j++ {
			b[8*i+j] = byte(w >> (8 * j))
		}
	}
	return string(b)
}

// intern canonicalizes words (trims trailing zero words) and returns the
// set's handle, creating it if new. The caller must not retain words —
// the pool may alias it.
//
// topolint:mutator — construction-phase writer: every call path runs
// either single-goroutine during Build, or against a Clone during Insert
// (parent pools are never extended; see the type comment).
func (p *OwnerPool) intern(words []uint64) Owners {
	for len(words) > 0 && words[len(words)-1] == 0 {
		words = words[:len(words)-1]
	}
	k := ownerKey(words)
	if h, ok := p.index[k]; ok {
		return h
	}
	h := Owners(len(p.sets))
	p.sets = append(p.sets, words[:len(words):len(words)])
	p.index[k] = h
	return h
}

// Has reports whether region index i is in the set.
func (p *OwnerPool) Has(o Owners, i int) bool {
	w := p.sets[o]
	return i>>6 < len(w) && w[i>>6]&(1<<uint(i&63)) != 0
}

// With returns the handle of the set with region index i added.
func (p *OwnerPool) With(o Owners, i int) Owners {
	old := p.sets[o]
	n := i>>6 + 1
	if len(old) > n {
		n = len(old)
	}
	words := make([]uint64, n)
	copy(words, old)
	words[i>>6] |= 1 << uint(i&63)
	return p.intern(words)
}

// Union returns the handle of the set union.
func (p *OwnerPool) Union(o, q Owners) Owners {
	if o == q || q == NoOwners {
		return o
	}
	if o == NoOwners {
		return q
	}
	a, b := p.sets[o], p.sets[q]
	if len(b) > len(a) {
		a, b = b, a
	}
	words := make([]uint64, len(a))
	copy(words, a)
	for i, w := range b {
		words[i] |= w
	}
	return p.intern(words)
}

// Count returns the number of owners in the set.
func (p *OwnerPool) Count(o Owners) int {
	n := 0
	for _, w := range p.sets[o] {
		n += bits.OnesCount64(w)
	}
	return n
}

// Members returns the set's region indices in ascending order.
func (p *OwnerPool) Members(o Owners) []int {
	out := make([]int, 0, p.Count(o))
	for wi, w := range p.sets[o] {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi<<6+b)
			w &^= 1 << uint(b)
		}
	}
	return out
}

// defaultRegionBudget is the region-count ceiling a fresh process accepts:
// comfortably past the old 256-region structural cap, low enough that a
// runaway bulk load fails fast instead of building a pathological
// arrangement. Raise it with SetRegionBudget for larger instances — the
// owner-set representation itself is unbounded.
const defaultRegionBudget = 4096

var regionBudget atomic.Int64

func init() { regionBudget.Store(defaultRegionBudget) }

// RegionBudget returns the current region-count budget.
func RegionBudget() int { return int(regionBudget.Load()) }

// SetRegionBudget sets the largest region count Build and Insert accept,
// returning the previous setting. The budget is an admission-control
// knob, not a structural limit: owner sets are interned variable-width
// bit sets, so any budget the machine's memory supports is valid. Values
// < 1 are clamped to 1.
func SetRegionBudget(n int) int {
	if n < 1 {
		n = 1
	}
	return int(regionBudget.Swap(int64(n)))
}

// checkRegionBudget refuses an instance of n regions past the budget with
// an error wrapping ErrTooManyRegions.
func checkRegionBudget(n int) error {
	if budget := RegionBudget(); n > budget {
		return fmt.Errorf("arrange: %w: %d regions exceed the region budget of %d (raise it with SetRegionBudget)", ErrTooManyRegions, n, budget)
	}
	return nil
}

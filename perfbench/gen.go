package main

import (
	"fmt"
	"math/rand"
)

// The metro workloads run on workload.MetroGrid(metroN, metroDistrict,
// metroStraddlePct). The layout constants below mirror that generator:
// districts of metroDistrict×metroDistrict 4×4 blocks at pitch
// 4·metroDistrict+3, laid out row-major on a near-square grid of cols
// columns, with block b of district d named Mg%06d(d·perDistrict+b).
const (
	metroN           = 3000
	metroDistrict    = 2
	metroStraddlePct = 10

	// metroMaxOps bounds one run's Apply stream: metroN+metroMaxOps stays
	// under the default region budget of 4096, so no run needs to raise it.
	metroMaxOps = 1000
	// defaultRegionBudget is topodb's shipped region budget, which the
	// benchmark never changes.
	defaultRegionBudget = 4096
)

// metroLayout is MetroGrid's district geometry.
type metroLayout struct {
	perDistrict int
	pitch       int64
	districts   int
	cols        int
}

func newMetroLayout() metroLayout {
	per := metroDistrict * metroDistrict
	nd := (metroN + per - 1) / per
	cols := 1
	for cols*cols < nd {
		cols++
	}
	return metroLayout{perDistrict: per, pitch: int64(4*metroDistrict + 3), districts: nd, cols: cols}
}

// origin returns district d's lower-left corner.
func (l metroLayout) origin(d int) (int64, int64) {
	return int64(d%l.cols) * l.pitch, int64(d/l.cols) * l.pitch
}

// block names the base region at block (br, bc) of district d.
func (l metroLayout) block(d, br, bc int) string {
	return fmt.Sprintf("Mg%06d", d*l.perDistrict+br*metroDistrict+bc)
}

// metroOp is one write→read step of a metro workload: Apply one rectangle
// named Name, then (on metro_apply_query) ask "Pred(Name, Neighbour)".
type metroOp struct {
	Name      string
	Rect      [4]int64
	Placement string // district | belt | straddle
	Pred      string
	Neighbour string
}

// metroPreds are the k=0 query predicates an op may ask.
var metroPreds = []string{"overlap", "meet", "disjoint", "coveredby", "connect"}

// metroOps returns the seeded Apply stream of a metro run: n rectangles,
// each inside a district overlapping its blocks, inside an empty belt, or
// straddling a belt into the next district (merging two shards). Every
// rectangle lies inside the base instance's bounding box, so the refined
// (k > 0) universes' scaffold never moves. Names sort after every base
// name and after each other, so each Apply appends.
func metroOps(seed int64, n int) []metroOp {
	if n > metroMaxOps {
		n = metroMaxOps
	}
	l := newMetroLayout()
	rng := rand.New(rand.NewSource(seed))
	ops := make([]metroOp, 0, n)
	for i := 0; i < n; i++ {
		op := metroOp{Name: fmt.Sprintf("Zop%05d", i), Pred: metroPreds[rng.Intn(len(metroPreds))]}
		d := rng.Intn(l.districts)
		ox, oy := l.origin(d)
		side := int64(4 * metroDistrict) // district footprint
		right := d%l.cols+1 < l.cols && d+1 < l.districts
		below := d+l.cols < l.districts
		switch p := rng.Intn(10); {
		case p < 6 || (!right && !below):
			// Inside the district, overlapping one to four blocks.
			x0 := ox + 1 + rng.Int63n(side/2)
			y0 := oy + 1 + rng.Int63n(side/2)
			x1 := x0 + 2 + rng.Int63n(ox+side-1-x0-1)
			y1 := y0 + 2 + rng.Int63n(oy+side-1-y0-1)
			op.Placement = "district"
			op.Rect = [4]int64{x0, y0, x1, y1}
			op.Neighbour = l.block(d, int(y0-oy)/4, int(x0-ox)/4)
		case p < 8:
			// Inside the empty belt to the right of (or below) the district.
			op.Placement = "belt"
			lo := 1 + rng.Int63n(side-3)
			hi := lo + 1 + rng.Int63n(side-1-lo)
			if right && (!below || rng.Intn(2) == 0) {
				op.Rect = [4]int64{ox + side + 1, oy + lo, ox + side + 2, oy + hi}
				op.Neighbour = l.block(d, 0, metroDistrict-1)
			} else {
				op.Rect = [4]int64{ox + lo, oy + side + 1, ox + hi, oy + side + 2}
				op.Neighbour = l.block(d, metroDistrict-1, 0)
			}
		default:
			// Across the belt into the neighbouring district.
			op.Placement = "straddle"
			lo := 1 + rng.Int63n(side-3)
			hi := lo + 1 + rng.Int63n(side-1-lo)
			if right && (!below || rng.Intn(2) == 0) {
				op.Rect = [4]int64{ox + side - 2, oy + lo, ox + l.pitch + 2, oy + hi}
				op.Neighbour = l.block(d, int(lo)/4, metroDistrict-1)
			} else {
				op.Rect = [4]int64{ox + lo, oy + side - 2, ox + hi, oy + l.pitch + 2}
				op.Neighbour = l.block(d, metroDistrict-1, int(lo)/4)
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// The served workload runs on workload.ManyRegions(servedN): regions on a
// servedCols×servedCols lattice at pitch 6, named M%05d.
const (
	servedN    = 1024
	servedCols = 32

	// servedMaxWrites keeps servedN+writes below the default shard
	// threshold of 2048, so every served Apply takes the monolithic
	// arrange.Insert path.
	servedMaxWrites = 900
	// servedWriteGap is the least number of requests between two writes,
	// and after the last one: reads land on every generation before the
	// next write, so each generation derives incrementally from the one
	// before.
	servedWriteGap = 20
	// servedBatch is the number of queries in one /v1/query/batch.
	servedBatch = 8
)

// servedReq is one request of the served_mixed stream.
type servedReq struct {
	Kind    string   // atom | quant | relate | batch | apply
	Query   string   // atom, quant
	A, B    string   // relate
	Queries []string // batch
	Name    string   // apply
	Rect    [4]int64 // apply
}

// route names the HTTP route a request is served by.
func (r servedReq) route() string {
	switch r.Kind {
	case "atom", "quant":
		return "query"
	default:
		return r.Kind
	}
}

// servedPreds are the region-atom predicates of served reads.
var servedPreds = []string{"overlap", "meet", "disjoint", "inside", "covers", "connect"}

// servedOps returns the seeded served_mixed request stream: about 3%
// /v1/apply writes (at least servedWriteGap requests apart) among reads
// over region pairs drawn with Zipf skew from a seed-permuted list of
// lattice neighbours — region atoms, cell quantifiers, /v1/relate and
// batches of servedBatch atoms. Reads name base regions only, so every
// read is valid at every generation.
func servedOps(seed int64, n int) []servedReq {
	rng := rand.New(rand.NewSource(seed))
	var pairs [][2]string
	for i := 0; i < servedN; i++ {
		r, c := i/servedCols, i%servedCols
		if c+1 < servedCols {
			pairs = append(pairs, [2]string{servedName(i), servedName(i + 1)})
		}
		if r+1 < servedN/servedCols {
			pairs = append(pairs, [2]string{servedName(i), servedName(i + servedCols)})
			if c+1 < servedCols {
				pairs = append(pairs, [2]string{servedName(i), servedName(i + servedCols + 1)})
			}
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(pairs)-1))
	pair := func() [2]string { return pairs[zipf.Uint64()] }
	atom := func() string {
		p := pair()
		return fmt.Sprintf("%s(%s, %s)", servedPreds[rng.Intn(len(servedPreds))], p[0], p[1])
	}

	reqs := make([]servedReq, 0, n)
	lastWrite, writes := -servedWriteGap, 0
	for i := 0; i < n; i++ {
		if i-lastWrite >= servedWriteGap && i+servedWriteGap < n && writes < servedMaxWrites && rng.Intn(13) == 0 {
			// Cover a lattice cell's region and the belt beside it,
			// never past the lattice's last row or column.
			r, c := int64(rng.Intn(servedCols-1)), int64(rng.Intn(servedCols-1))
			x0, y0 := 6*c+1+rng.Int63n(3), 6*r+1+rng.Int63n(3)
			reqs = append(reqs, servedReq{
				Kind: "apply", Name: fmt.Sprintf("Zs%05d", writes),
				Rect: [4]int64{x0, y0, x0 + 2 + rng.Int63n(4), y0 + 2 + rng.Int63n(4)},
			})
			lastWrite = i
			writes++
			continue
		}
		switch p := rng.Intn(97); {
		case p < 50:
			reqs = append(reqs, servedReq{Kind: "atom", Query: atom()})
		case p < 70:
			pr := pair()
			q := fmt.Sprintf("some cell r: subset(r, %s) and subset(r, %s)", pr[0], pr[1])
			if rng.Intn(2) == 0 {
				q = fmt.Sprintf("all cell r: subset(r, %s) implies not subset(r, %s)", pr[0], pr[1])
			}
			reqs = append(reqs, servedReq{Kind: "quant", Query: q})
		case p < 87:
			pr := pair()
			reqs = append(reqs, servedReq{Kind: "relate", A: pr[0], B: pr[1]})
		default:
			qs := make([]string, servedBatch)
			for j := range qs {
				qs[j] = atom()
			}
			reqs = append(reqs, servedReq{Kind: "batch", Queries: qs})
		}
	}
	return reqs
}

func servedName(i int) string { return fmt.Sprintf("M%05d", i) }

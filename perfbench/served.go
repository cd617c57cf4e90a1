package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"topodb"
	"topodb/internal/arrange"
	"topodb/internal/folang"
	"topodb/internal/fourint"
	"topodb/internal/region"
	"topodb/internal/serve"
	"topodb/internal/spatial"
	"topodb/internal/workload"
)

const (
	// servedRate is the offered load in requests per second, set once at
	// about a quarter of the closed-loop capacity of servedConns
	// connections on a 2-CPU x86-64 machine (see README.md).
	servedRate = 100
	// servedSetups is how many times an untraced run sets up; setup_s is
	// the median. A set-up takes about 0.2 s, so more of them than on the
	// metro workloads keep the median steady.
	servedSetups = 9
	// servedConns bounds the client's connections (and requests in flight).
	servedConns = 2
	// servedTail is the read-latency tail percentile printed; it needs
	// tailCount(servedTail) reads per run.
	servedTail = 99
	// servedInstance is the name the instance is served under.
	servedInstance = "main"
)

// servedOutcome is the client's record of one request.
type servedOutcome struct {
	due, sent, done time.Duration // since the run started
	status          int
	err             error
	gen             uint64
	ok              bool   // atom, quant
	relation        string // relate
	batch           []bool // batch
}

// servedRun is one pass of the served_mixed stream against a live server.
type servedRun struct {
	setupS  []float64
	srv     *serve.Server
	hs      *httptest.Server
	reqs    []servedReq
	out     []servedOutcome
	elapsed time.Duration
	allocB  uint64
	deriv   []uint64
	metrics serve.Snapshot
	steal   string // host CPU steal over the measured requests
}

// servedSetup loads the instance, cold-materializes the arrangement and
// the query universe, and starts the server behind a loopback listener.
func servedSetup(ctx context.Context) (*serve.Server, *httptest.Server, error) {
	db := topodb.Wrap(workload.ManyRegions(servedN))
	snap := db.Snapshot()
	if _, err := snap.Query(ctx, "overlap(M00000, M00001)"); err != nil {
		return nil, nil, fmt.Errorf("setup query: %w", err)
	}
	if _, err := snap.Relate("M00000", "M00001"); err != nil {
		return nil, nil, fmt.Errorf("setup relate: %w", err)
	}
	srv := serve.New(serve.DefaultOptions())
	srv.Register(servedInstance, db)
	return srv, httptest.NewServer(srv.Handler()), nil
}

// runServed sets up `setups` times (keeping the last server) and offers
// the first n requests of the seeded stream at servedRate.
func runServed(ctx context.Context, seed int64, setups, n int) (*servedRun, error) {
	r := &servedRun{}
	for i := 0; i < setups; i++ {
		if r.hs != nil {
			r.hs.Close()
			r.srv, r.hs = nil, nil
		}
		runtime.GC()
		t0 := time.Now()
		srv, hs, err := servedSetup(ctx)
		if err != nil {
			return nil, err
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		r.srv, r.hs = srv, hs
	}
	defer r.hs.Close()
	runtime.GC()

	r.reqs = servedOps(seed, n)
	r.out = make([]servedOutcome, len(r.reqs))
	tr := &http.Transport{MaxConnsPerHost: servedConns, MaxIdleConnsPerHost: servedConns, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	d0 := derivCounts()
	a0 := allocBytes()
	steal0, total0 := cpuTicks()
	start := time.Now()
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < servedConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				o := &r.out[i]
				o.sent = time.Since(start)
				r.do(ctx, client, r.reqs[i], o)
				o.done = time.Since(start)
			}
		}()
	}
	// Open loop: request i is due at i/servedRate; a request waiting for
	// a free connection is late, and its latency counts from when it was
	// due.
	for i := range r.reqs {
		due := time.Duration(i) * time.Second / servedRate
		r.out[i].due = due
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	r.elapsed = time.Since(start)
	r.steal = stealNote(steal0, total0)
	r.allocB = allocBytes() - a0
	r.deriv = derivDelta(d0, derivCounts())
	r.metrics = r.srv.Metrics().Snapshot()
	return r, nil
}

// do sends one request and decodes its response into o.
func (r *servedRun) do(ctx context.Context, client *http.Client, q servedReq, o *servedOutcome) {
	var path string
	var body any
	switch q.Kind {
	case "atom", "quant":
		path, body = "/v1/query", serve.QueryRequest{Instance: servedInstance, Query: q.Query}
	case "relate":
		path, body = "/v1/relate", serve.RelateRequest{Instance: servedInstance, A: q.A, B: q.B}
	case "batch":
		path, body = "/v1/query/batch", serve.BatchRequest{Instance: servedInstance, Queries: q.Queries}
	case "apply":
		path, body = "/v1/apply", serve.ApplyRequest{Instance: servedInstance, Adds: []serve.AddOp{
			{Name: q.Name, Kind: "rect", Coords: q.Rect[:]},
		}}
	}
	buf, err := json.Marshal(body)
	if err != nil {
		o.err = err
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.hs.URL+path, bytes.NewReader(buf))
	if err != nil {
		o.err = err
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		o.err = err
		return
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		o.err = err
		return
	}
	o.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
		return
	}
	switch q.Kind {
	case "atom", "quant":
		var v serve.QueryResponse
		o.err = json.Unmarshal(data, &v)
		o.gen, o.ok = v.Gen, v.OK
	case "relate":
		var v serve.RelateResponse
		o.err = json.Unmarshal(data, &v)
		o.gen, o.relation = v.Gen, v.Relation
	case "batch":
		var v serve.BatchResponse
		o.err = json.Unmarshal(data, &v)
		o.gen = v.Gen
		for _, res := range v.Results {
			if res.Error != nil && o.err == nil {
				o.err = fmt.Errorf("batch query: %s", res.Error.Message)
			}
			o.batch = append(o.batch, res.OK)
		}
	case "apply":
		var v serve.ApplyResponse
		o.err = json.Unmarshal(data, &v)
		o.gen = v.Gen
	}
}

// failures counts requests that errored or came back non-2xx.
func (r *servedRun) failures() int {
	n := 0
	for _, o := range r.out {
		if o.err != nil {
			n++
		}
	}
	return n
}

// servedAnswer is a read's verdict in comparable form.
type servedAnswer struct {
	ok       bool
	relation string
	batch    string
}

func answerOf(o servedOutcome) servedAnswer {
	return servedAnswer{ok: o.ok, relation: o.relation, batch: fmt.Sprint(o.batch)}
}

// readOn answers a read on a library snapshot, as the server would.
func readOn(ctx context.Context, snap *topodb.Snapshot, q servedReq) (servedAnswer, error) {
	switch q.Kind {
	case "relate":
		rel, err := snap.Relate(q.A, q.B)
		return servedAnswer{relation: rel.String(), batch: fmt.Sprint([]bool(nil))}, err
	case "batch":
		vs, err := snap.QueryBatch(ctx, q.Queries)
		return servedAnswer{batch: fmt.Sprint(vs)}, err
	default:
		ok, err := snap.Query(ctx, q.Query)
		return servedAnswer{ok: ok, batch: fmt.Sprint([]bool(nil))}, err
	}
}

func applyReq(db *topodb.Instance, q servedReq) error {
	return db.Apply(func(tx *topodb.Txn) error {
		return tx.AddRect(q.Name, q.Rect[0], q.Rect[1], q.Rect[2], q.Rect[3])
	})
}

// oracle checks every successful read against a mirror Instance at the
// generation the response names: writes are replayed in the order of the
// generations the server assigned them. It returns the number of
// mismatches.
func (r *servedRun) oracle(ctx context.Context) (int, error) {
	mirror := topodb.Wrap(workload.ManyRegions(servedN))
	byGen := map[uint64][]int{}
	writeAt := map[uint64]int{}
	var gens []uint64
	for i, o := range r.out {
		if o.err != nil {
			continue
		}
		if r.reqs[i].Kind == "apply" {
			writeAt[o.gen] = i
			continue
		}
		if byGen[o.gen] == nil {
			gens = append(gens, o.gen)
		}
		byGen[o.gen] = append(byGen[o.gen], i)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	bad := 0
	for _, gen := range gens {
		for mirror.Gen() < gen {
			i, ok := writeAt[mirror.Gen()+1]
			if !ok {
				return bad + len(byGen[gen]), fmt.Errorf("oracle: no write produced generation %d", mirror.Gen()+1)
			}
			if err := applyReq(mirror, r.reqs[i]); err != nil {
				return bad, fmt.Errorf("oracle apply: %w", err)
			}
		}
		if mirror.Gen() != gen {
			return bad + len(byGen[gen]), fmt.Errorf("oracle: mirror at generation %d, reads name %d", mirror.Gen(), gen)
		}
		snap := mirror.Snapshot()
		for _, i := range byGen[gen] {
			want, err := readOn(ctx, snap, r.reqs[i])
			if err != nil {
				return bad, fmt.Errorf("oracle read: %w", err)
			}
			if got := answerOf(r.out[i]); got != want {
				bad++
				fmt.Printf("oracle: request %d (%s) at gen %d: got %+v, mirror says %+v\n", i, r.reqs[i].Kind, gen, got, want)
			}
		}
	}
	return bad, nil
}

// servedLatencies are a served run's request times in ms.
type servedLatencies struct {
	reads, writes []float64 // due→done of the successful reads and writes
	// afterWrite is due→done of the first read after each write: the read
	// that pays the new generation's derivation.
	afterWrite []float64
	service    map[string][]float64 // send→done per route
	late       []float64            // due→sent of every request
}

func (r *servedRun) latencies() servedLatencies {
	l := servedLatencies{service: map[string][]float64{}}
	afterWrite := false
	for i, o := range r.out {
		l.late = append(l.late, ms(o.sent-o.due))
		q := r.reqs[i]
		if q.Kind == "apply" {
			afterWrite = true
		}
		if o.err != nil {
			continue
		}
		lat := ms(o.done - o.due)
		if q.Kind == "apply" {
			l.writes = append(l.writes, lat)
		} else {
			l.reads = append(l.reads, lat)
			if afterWrite {
				l.afterWrite = append(l.afterWrite, lat)
			}
			afterWrite = false
		}
		l.service[q.route()] = append(l.service[q.route()], ms(o.done-o.sent))
	}
	return l
}

// endToEnd reports the untraced metrics of a served run.
func (r *servedRun) endToEnd(res *result) {
	l := r.latencies()
	n := len(r.out)
	res.add(metric{Name: "setup_s", Value: median(r.setupS), Unit: "s", N: len(r.setupS)})
	res.add(metric{Name: "ops_per_s", Value: float64(n-r.failures()) / r.elapsed.Seconds(), Unit: "1/s", N: n})
	res.add(metric{Name: "op_p50_ms", Value: median(l.reads), Unit: "ms", N: len(l.reads), Alias: "read_p50_ms"})
	// The slowest ~3% of reads are the first read after each write, so the
	// read p99 is the upper third of those ~45 samples and a single host
	// stall moves it; their median is the tail's steady measure.
	res.add(metric{Name: "op_tail_ms", Value: median(l.afterWrite), Unit: "ms", N: len(l.afterWrite),
		Alias: "read_after_apply_p50_ms"})
	res.add(metric{Name: "apply_p50_ms", Value: median(l.writes), Unit: "ms", N: len(l.writes), Alias: "apply_p50_ms"})
	res.add(metric{Name: "alloc_mb_per_op", Value: float64(r.allocB) / 1e6 / float64(max(n, 1)), Unit: "MB", N: n})
	res.add(metric{Name: "peak_rss_mb", Value: peakRSSMB(), Unit: "MB", N: 1})
	res.note(fmt.Sprintf("read_p%d_ms %.6f ms n=%d (printed only: too few samples beyond it to gate on)",
		servedTail, quantile(l.reads, servedTail/100.0), len(l.reads)))
	res.note(fmt.Sprintf("offered %d req/s over %d connections; generator late p99 %.3f ms", servedRate, servedConns, quantile(l.late, 0.99)))
	res.note(r.steal)
	if len(l.reads) < tailCount(servedTail) {
		res.note(fmt.Sprintf("warning: %d reads < %d needed for p%d", len(l.reads), tailCount(servedTail), servedTail))
	}
}

// servedGen is one generation of the served replay: what the topodb cache
// would hold for it, built only when a read needs it.
type servedGen struct {
	in     *spatial.Instance
	a      *arrange.Arrangement
	u      *folang.Universe
	parent *servedGen
	added  string
}

// servedReplay replays the request stream through the layer packages in
// the order the topodb cache would call them, with a span around each
// call.
type servedReplay struct {
	tr      *tracer
	cur     *servedGen
	modes   [derivRows]uint64
	answers []servedAnswer
	reads   []int // op ids of reads
	allocMB []float64
	coldS   map[string]float64
}

func newServedReplay(ctx context.Context) (*servedReplay, error) {
	r := &servedReplay{tr: newTracer(), coldS: map[string]float64{}}
	g := &servedGen{in: workload.ManyRegions(servedN)}
	t0 := time.Now()
	a, err := arrange.BuildCtx(ctx, g.in)
	if err != nil {
		return nil, fmt.Errorf("cold build: %w", err)
	}
	r.coldS["arrange.cold_build_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	u, err := folang.NewUniverseFromArrangementCtx(ctx, a, g.in)
	if err != nil {
		return nil, fmt.Errorf("cold universe: %w", err)
	}
	r.coldS["folang.cold_universe_s"] = time.Since(t0).Seconds()
	g.a, g.u = a, u
	r.cur = g
	return r, nil
}

// arrangement derives the current generation's arrangement on first use:
// by arrange.Insert from a parent that has one, cold otherwise.
func (r *servedReplay) arrangement(ctx context.Context, op, parent int) (*arrange.Arrangement, error) {
	g := r.cur
	if g.a != nil {
		return g.a, nil
	}
	err := r.tr.call("arrange.insert", op, parent, func() error {
		var err error
		if g.parent != nil && g.parent.a != nil {
			if g.a, err = arrange.Insert(ctx, g.parent.a, g.in, g.added); err == nil {
				r.modes[derivArrangementIncremental]++
				return nil
			}
		}
		r.modes[derivArrangementCold]++
		g.a, err = arrange.BuildCtx(ctx, g.in)
		return err
	})
	return g.a, err
}

// universe derives the current generation's query universe on first use.
func (r *servedReplay) universe(ctx context.Context, op, parent int) (*folang.Universe, error) {
	g := r.cur
	if g.u != nil {
		return g.u, nil
	}
	a, err := r.arrangement(ctx, op, parent)
	if err != nil {
		return nil, err
	}
	a0 := allocBytes()
	err = r.tr.call("folang.universe", op, parent, func() error {
		var err error
		if g.parent != nil && g.parent.u != nil {
			if g.u, err = folang.InsertUniverse(ctx, g.parent.u, a, g.in); err == nil {
				r.modes[derivUniverseIncremental]++
				return nil
			}
		}
		r.modes[derivUniverseCold]++
		g.u, err = folang.NewUniverseFromArrangementCtx(ctx, a, g.in)
		return err
	})
	r.allocMB = append(r.allocMB, float64(allocBytes()-a0)/1e6)
	return g.u, err
}

// step replays request op.
func (r *servedReplay) step(ctx context.Context, op int, q servedReq) error {
	root := r.tr.begin(q.route(), op, -1)
	defer r.tr.end(root)
	if q.Kind == "apply" {
		return r.tr.call("topodb.apply", op, root, func() error {
			p := r.cur
			if p.a != nil {
				p.a.ClearProv()
			}
			p.parent = nil
			g := &servedGen{in: p.in.Clone(), parent: p, added: q.Name}
			r.cur = g
			return g.in.Add(q.Name, region.MustRect(q.Rect[0], q.Rect[1], q.Rect[2], q.Rect[3]))
		})
	}
	r.reads = append(r.reads, op)
	var ans servedAnswer
	switch q.Kind {
	case "relate":
		a, err := r.arrangement(ctx, op, root)
		if err != nil {
			return err
		}
		err = r.tr.call("fourint.relate", op, root, func() error {
			ri, rj := a.RegionIndex(q.A), a.RegionIndex(q.B)
			if ri < 0 || rj < 0 {
				return fmt.Errorf("no region %s or %s", q.A, q.B)
			}
			rel, err := fourint.Classify(fourint.MatrixOf(a, ri, rj))
			ans = servedAnswer{relation: rel.String(), batch: fmt.Sprint([]bool(nil))}
			return err
		})
		if err != nil {
			return err
		}
	case "batch":
		u, err := r.universe(ctx, op, root)
		if err != nil {
			return err
		}
		err = r.tr.call("folang.eval", op, root, func() error {
			vs, err := folang.EvaluateAllCtx(ctx, u, q.Queries)
			ans = servedAnswer{batch: fmt.Sprint(vs)}
			return err
		})
		if err != nil {
			return err
		}
	default:
		u, err := r.universe(ctx, op, root)
		if err != nil {
			return err
		}
		err = r.tr.call("folang.eval", op, root, func() error {
			f, err := folang.Parse(q.Query)
			if err != nil {
				return err
			}
			if missing := folang.Analyze(f).MissingNames(u); len(missing) > 0 {
				return fmt.Errorf("no region %s", missing[0])
			}
			ok, err := folang.NewEvaluator(u).EvalCtx(ctx, f)
			ans = servedAnswer{ok: ok, batch: fmt.Sprint([]bool(nil))}
			return err
		})
		if err != nil {
			return err
		}
	}
	r.answers = append(r.answers, ans)
	return nil
}

// servedLayers are the spans whose self times account for a served read.
var servedLayers = []layer{
	{"topodb.apply", "topodb.apply_ms"},
	{"arrange.insert", "arrange.insert_ms"},
	{"folang.universe", "folang.universe_ms"},
	{"folang.eval", "folang.eval_ms"},
	{"fourint.relate", "fourint.relate_ms"},
}

// servedRoutes are the read routes, in report order.
var servedRoutes = []string{"query", "relate", "batch"}

// runServedTraced serves half the budget's requests untraced, replays the
// same stream on library snapshots without HTTP (topodb.read_ms) and
// through the layers with spans, cross-checks all three, and reports the
// per-layer metrics.
func runServedTraced(ctx context.Context, cfg config, res *result) error {
	n := max(int(cfg.dur.Seconds()/2*servedRate), tailCount(servedTail)+servedWriteGap)
	run, err := runServed(ctx, cfg.seed, 1, n)
	if err != nil {
		return err
	}
	res.attempted += len(run.out)
	res.failed += run.failures()
	bad, err := run.oracle(ctx)
	if err != nil {
		return err
	}
	res.failed += bad
	lat := run.latencies()
	reqs, libDeriv, sm := run.reqs, run.deriv, run.metrics
	run = nil
	runtime.GC()

	// topodb.read_ms: the same stream, sequentially, on library snapshots.
	db := topodb.Wrap(workload.ManyRegions(servedN))
	if _, err := db.Snapshot().Query(ctx, "overlap(M00000, M00001)"); err != nil {
		return err
	}
	readMS := map[string][]float64{}
	var libRead []float64
	var libAnswers []servedAnswer
	d0 := derivCounts()
	for _, q := range reqs {
		if q.Kind == "apply" {
			if err := applyReq(db, q); err != nil {
				return err
			}
			db.Snapshot() // as /v1/apply does: the new generation's cache opens now
			continue
		}
		t0 := time.Now()
		ans, err := readOn(ctx, db.Snapshot(), q)
		if err != nil {
			return err
		}
		d := ms(time.Since(t0))
		readMS[q.route()] = append(readMS[q.route()], d)
		libRead = append(libRead, d)
		libAnswers = append(libAnswers, ans)
	}
	seqDeriv := derivDelta(d0, derivCounts())
	db = nil
	runtime.GC()

	rp, err := newServedReplay(ctx)
	if err != nil {
		return err
	}
	for i, q := range reqs {
		if err := rp.step(ctx, i, q); err != nil {
			return fmt.Errorf("replay request %d: %w", i, err)
		}
	}
	mismatch := 0
	for i := range rp.answers {
		if rp.answers[i] != libAnswers[i] {
			mismatch++
		}
	}
	lines := append(checkModes(libDeriv, rp.modes), checkModes(seqDeriv, rp.modes)...)
	for _, l := range lines {
		res.note(l)
	}
	mismatch += len(lines)
	if mismatch > 0 {
		res.note(fmt.Sprintf("cross-check: %d mismatches between served, library and replay", mismatch))
	}
	res.failed += mismatch

	vals := map[string]float64{}
	rp.tr.account(vals, servedLayers, rp.reads, libRead)
	vals["arrange.cold_build_s"] = rp.coldS["arrange.cold_build_s"]
	vals["folang.cold_universe_s"] = rp.coldS["folang.cold_universe_s"]
	vals["folang.universe_alloc_mb"] = median(rp.allocMB)
	applies := 0
	for _, q := range reqs {
		if q.Kind == "apply" {
			applies++
		}
	}
	setDerivMetrics(vals, libDeriv, applies)
	for _, route := range servedRoutes {
		vals["topodb.read_ms."+route] = median(readMS[route])
		vals["serve.overhead_ms."+route] = median(lat.service[route]) - median(readMS[route])
	}
	var queries uint64
	for _, route := range []string{"query", "batch"} {
		queries += sm.Routes[route].Requests
	}
	if queries > 0 {
		vals["serve.coalesce_frac"] = float64(sm.CoalesceHits()) / float64(queries)
	}
	if sm.BatchFlushes > 0 {
		vals["serve.batch_size_mean"] = float64(sm.BatchQueries) / float64(sm.BatchFlushes)
	}
	vals["serve.shed"] = float64(sm.Shed)
	vals["loadgen.late_p99_ms"] = quantile(lat.late, 0.99)

	res.layers(vals, len(rp.reads))
	return rp.tr.save(cfg, res)
}

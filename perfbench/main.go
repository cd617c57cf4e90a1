// Command perfbench is topodb's benchmark: it runs one named workload
// from a seed through the public topodb API (and, on served_mixed, the
// in-process internal/serve handler), checks every answer, and prints each
// end-to-end metric with its unit and sample count. With --trace 1 it
// instead replays the workload's ops through the layer packages
// (internal/arrange, internal/folang, internal/invariant) with a span
// around each call and prints the per-layer metrics. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. See README.md.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	traceDir string
}

// workloads names the runnable workloads, in report order.
var workloads = []string{"metro_apply_query", "metro_apply_canonical", "served_mixed"}

// metroSetups is how many times an untraced metro run sets up; setup_s is
// the median.
const metroSetups = 3

// layerMetrics is every per-layer metric a traced run prints, in order;
// layers a workload does not run report 0.
var layerMetrics = []struct{ name, unit string }{
	{"arrange.insert_ms", "ms"},
	{"arrange.rebuilt_frac", "ratio"},
	{"arrange.stitch_ms", "ms"},
	{"arrange.stitch_alloc_mb", "MB"},
	{"arrange.cold_build_s", "s"},
	{"folang.universe_ms", "ms"},
	{"folang.universe_refined_ms", "ms"},
	{"folang.universe_alloc_mb", "MB"},
	{"folang.eval_ms", "ms"},
	{"folang.cold_universe_s", "s"},
	{"fourint.relate_ms", "ms"},
	{"invariant.delta_ms", "ms"},
	{"invariant.canonical_ms", "ms"},
	{"invariant.canonical_alloc_mb", "MB"},
	{"invariant.canonical_bytes", "bytes"},
	{"invariant.cold_canonical_s", "s"},
	{"topodb.apply_ms", "ms"},
	{"topodb.deriv.arrangement.cold", "per_apply"},
	{"topodb.deriv.arrangement.incremental", "per_apply"},
	{"topodb.deriv.arrangement.aliased", "per_apply"},
	{"topodb.deriv.universe.cold", "per_apply"},
	{"topodb.deriv.universe.incremental", "per_apply"},
	{"topodb.deriv.universe_refined.cold", "per_apply"},
	{"topodb.deriv.universe_refined.incremental", "per_apply"},
	{"topodb.deriv.invariant.cold", "per_apply"},
	{"topodb.deriv.invariant.incremental", "per_apply"},
	{"topodb.deriv.sinvariant.cold", "per_apply"},
	{"topodb.incremental_frac", "ratio"},
	{"topodb.read_ms.query", "ms"},
	{"topodb.read_ms.relate", "ms"},
	{"topodb.read_ms.batch", "ms"},
	{"serve.overhead_ms.query", "ms"},
	{"serve.overhead_ms.relate", "ms"},
	{"serve.overhead_ms.batch", "ms"},
	{"serve.coalesce_frac", "ratio"},
	{"serve.batch_size_mean", "count"},
	{"serve.shed", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.untraced_op_ms", "ms"},
	{"trace.op_ms", "ms"},
	{"trace.layers_ms", "ms"},
	{"trace.remainder_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.span_cost_us", "us"},
	{"trace.spans_per_op", "count"},
}

// result collects one run's metrics, notes and failure counts.
type result struct {
	metrics   []metric
	notes     []string
	attempted int
	failed    int
}

func (r *result) add(m metric)     { r.metrics = append(r.metrics, m) }
func (r *result) note(line string) { r.notes = append(r.notes, line) }

// layers adds every per-layer metric from vals (0 where absent), each
// with sample count n.
func (r *result) layers(vals map[string]float64, n int) {
	for _, l := range layerMetrics {
		r.add(metric{Name: l.name, Value: vals[l.name], Unit: l.unit, N: n})
	}
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the workload's op stream")
	flag.IntVar(&seconds, "seconds", 15, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/traces", "where a traced run writes its spans (empty = nowhere)")
	flag.Parse()
	cfg.dur, cfg.trace = time.Duration(seconds)*time.Second, trace == 1

	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println("# env:", environment())
	for _, m := range res.metrics {
		alias := ""
		if m.Alias != "" {
			alias = "(" + m.Alias + ")"
		}
		fmt.Printf("%-42s %16.6f %-9s n=%-6d %s\n", m.Name, m.Value, m.Unit, m.N, alias)
	}
	fmt.Printf("%-42s %16.6f %-9s n=%-6d\n", "failed_frac", float64(res.failed)/float64(max(res.attempted, 1)), "ratio", res.attempted)
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.failed == 0 && res.attempted > 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	for _, m := range res.metrics {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// run dispatches one workload, untraced or traced.
func run(ctx context.Context, cfg config) (*result, error) {
	res := &result{}
	canonical := cfg.workload == "metro_apply_canonical"
	switch cfg.workload {
	case "metro_apply_query", "metro_apply_canonical":
		if cfg.trace {
			return res, runMetroTraced(ctx, cfg, canonical, res)
		}
		tail := float64(metroQueryTail)
		if canonical {
			tail = metroCanonicalTail
		}
		lib, err := runMetroLibrary(ctx, canonical, cfg.seed, metroSetups, cfg.dur, tailCount(tail))
		if err != nil {
			return nil, err
		}
		res.attempted, res.failed = len(lib.ops)+lib.failed, lib.failed
		lib.endToEnd(res)
		bad, err := lib.oracle(ctx)
		if err != nil {
			return nil, err
		}
		res.failed += bad
		res.note(fmt.Sprintf("oracle: %d mismatches against a cold rebuild of the final region set", bad))
		for i, n := range lib.deriv {
			if derivIsCold(i) && n > 0 {
				res.note(fmt.Sprintf("warning: %d cold %s derivations after set-up", n, derivNames[i]))
			}
		}
		return res, nil
	case "served_mixed":
		if cfg.trace {
			return res, runServedTraced(ctx, cfg, res)
		}
		n := max(int(cfg.dur.Seconds()*servedRate), tailCount(servedTail)+servedWriteGap)
		r, err := runServed(ctx, cfg.seed, servedSetups, n)
		if err != nil {
			return nil, err
		}
		res.attempted, res.failed = len(r.out), r.failures()
		r.endToEnd(res)
		bad, err := r.oracle(ctx)
		if err != nil {
			return nil, err
		}
		res.failed += bad
		res.note(fmt.Sprintf("oracle: %d mismatches against a mirror snapshot at each response's generation", bad))
		for i, o := range r.out {
			if o.err != nil {
				res.note(fmt.Sprintf("request %d (%s) failed: %v", i, r.reqs[i].Kind, o.err))
			}
		}
		return res, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
}

// environment describes what the result was measured on: GOMAXPROCS,
// CPUs, Go version, and the source the program was built from.
func environment() string {
	nproc := os.Getenv("PERFBENCH_NPROC")
	if nproc == "" {
		nproc = "?"
	}
	return fmt.Sprintf("GOMAXPROCS=%d nproc=%s NumCPU=%d go=%s commit=%s source_sha256=%s",
		runtime.GOMAXPROCS(0), nproc, runtime.NumCPU(), runtime.Version(), gitCommit(), sourceDigest())
}

// gitCommit reads HEAD's commit from .git in the working directory, or
// "none" outside a git checkout.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "none"
}

// sourceDigest hashes every go.mod and .go file under the working
// directory (skipping hidden directories), identifying the source even
// where no git metadata exists.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries only weaken the digest
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

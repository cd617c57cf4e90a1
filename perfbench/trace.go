package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call: spans of one op share op, and parent indexes the
// enclosing span (-1 for an op's root).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory; write dumps them when the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.epoch)) }

// call runs fn inside a span named name, child of parent.
func (t *tracer) call(name string, op, parent int, fn func() error) error {
	i := t.begin(name, op, parent)
	err := fn()
	t.end(i)
	return err
}

// selfTimes returns, per op, each span name's summed self time: a span's
// duration minus the part of its interval its child spans cover.
func (t *tracer) selfTimes() map[int]map[string]time.Duration {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[int]map[string]time.Duration)
	for i, s := range t.spans {
		covered := coveredNanos(t.spans, children[i], s.Start, s.End)
		if out[s.Op] == nil {
			out[s.Op] = make(map[string]time.Duration)
		}
		out[s.Op][s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// coveredNanos is the length of the union of the child intervals, clipped
// to [lo, hi].
func coveredNanos(spans []span, kids []int, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, lo), min(spans[k].End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerMedianMS returns the median, over the ops that entered layer, of
// each op's self time in layer, in ms.
func layerMedianMS(self map[int]map[string]time.Duration, layer string) float64 {
	var xs []float64
	for op := 0; op < len(self); op++ {
		if d, ok := self[op][layer]; ok {
			xs = append(xs, ms(d))
		}
	}
	return median(xs)
}

// layer pairs a span name with the per-layer metric of its self time.
type layer struct{ span, metric string }

// account stores each layer's median self time and the accounting rows
// comparing the replay of ops with untraced, the library's latencies of
// the same ops (ms): how much of an op the named layers explain, and what
// replaying and tracing cost.
func (t *tracer) account(vals map[string]float64, layers []layer, ops []int, untraced []float64) {
	self := t.selfTimes()
	root := map[int]float64{}
	for _, s := range t.spans {
		if s.Parent < 0 {
			root[s.Op] = float64(s.End-s.Start) / 1e6
		}
	}
	rootMS := make([]float64, 0, len(ops))
	layersMS := make([]float64, 0, len(ops))
	for _, op := range ops {
		rootMS = append(rootMS, root[op])
		var sum float64
		for _, l := range layers {
			sum += ms(self[op][l.span])
		}
		layersMS = append(layersMS, sum)
	}
	for _, l := range layers {
		vals[l.metric] = layerMedianMS(self, l.span)
	}
	vals["trace.untraced_op_ms"] = median(untraced)
	vals["trace.op_ms"] = median(rootMS)
	vals["trace.layers_ms"] = median(layersMS)
	vals["trace.remainder_ms"] = vals["trace.untraced_op_ms"] - vals["trace.layers_ms"]
	vals["trace.overhead_ms"] = vals["trace.op_ms"] - vals["trace.untraced_op_ms"]
	vals["trace.span_cost_us"] = spanCost(100000) / 1e3
	vals["trace.spans_per_op"] = float64(len(t.spans)) / float64(max(len(root), 1))
}

// spanCost measures the tracer's own cost per span in ns, by recording n
// empty spans.
func spanCost(n int) float64 {
	t := newTracer()
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x", 0, -1))
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// save writes the spans under cfg.traceDir, if set, and notes where.
func (t *tracer) save(cfg config, res *result) error {
	if cfg.traceDir == "" {
		return nil
	}
	path, err := t.write(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err != nil {
		return err
	}
	res.note("spans written to " + path)
	return nil
}

// write dumps the spans as JSON lines to dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("trace write: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace flush: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace close: %w", err)
	}
	return path, nil
}

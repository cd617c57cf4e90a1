package arrange

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"topodb/internal/spatial"
)

// shardInsertMax bounds the per-shard delta (regions a changed shard
// gained over its largest surviving parent shard) the incremental
// sub-derivation accepts; larger deltas — bulk merges of many shards —
// rebuild that shard cold, which at that size is the cheaper path anyway.
const shardInsertMax = 64

// shardKey is the cross-generation identity of a shard: its member names.
// Box-overlap components only ever merge as regions are added, so a shard
// of the new plan either reproduces a parent shard's member set exactly
// (untouched — its sub-arrangement is aliased) or unions one or more
// parent shards with some added regions (changed — rebuilt or derived).
func shardKey(names []string, members []int) string {
	var b strings.Builder
	for _, ri := range members {
		b.WriteString(names[ri])
		b.WriteByte(0)
	}
	return b.String()
}

// InsertSharded derives the sharded artifact of in — which must extend
// parent's instance by exactly the named added regions — doing heavy work
// only in the shards the delta touches:
//
//   - shards whose member set the delta left alone alias the parent
//     generation's sub-arrangement wholesale (a pointer copy; sub-
//     arrangements are immutable),
//   - a changed shard is the union of >= 0 parent shards plus some added
//     regions (pure extensions can merge box components, never split
//     them); it derives incrementally by arrange.Insert into its largest
//     surviving parent shard when the per-shard delta is small, and
//     rebuilds cold — still only that shard — otherwise.
//
// The result is a fresh Sharded; parent is never mutated and snapshots of
// its generation keep reading it.
func InsertSharded(ctx context.Context, parent *Sharded, in *spatial.Instance, added ...string) (*Sharded, error) {
	if parent == nil || len(added) == 0 {
		return nil, fmt.Errorf("arrange: InsertSharded needs a parent and at least one added region")
	}
	if err := checkExtension("InsertSharded", parent.Names, parent.Plan.RegionIndex, in, added); err != nil {
		return nil, err
	}
	return fanOut(ctx, in, parent)
}

// insertShard builds changed shard c of the new plan: incrementally from
// its largest surviving parent shard when the per-shard delta is small
// enough, cold otherwise.
func insertShard(ctx context.Context, parent *Sharded, in *spatial.Instance, plan *ShardPlan, c int) (*Arrangement, error) {
	subIn := plan.SubInstance(in, c)

	// The shard's pre-existing members form a union of complete parent
	// shards; the largest is the Insert base, everything else (other
	// merged parent shards plus the genuinely new regions) is the delta.
	best, bestSize := -1, 0
	seen := make(map[int]bool)
	for _, ri := range plan.Members[c] {
		pi := parent.Plan.RegionIndex(plan.Names[ri])
		if pi < 0 {
			continue
		}
		pc := parent.Plan.Shard[pi]
		if seen[pc] {
			continue
		}
		seen[pc] = true
		if size := len(parent.Plan.Members[pc]); size > bestSize || (size == bestSize && (best == -1 || pc < best)) {
			best, bestSize = pc, size
		}
	}
	if best >= 0 {
		base := parent.Subs[best]
		delta := make([]string, 0, len(plan.Members[c])-bestSize)
		for _, ri := range plan.Members[c] {
			name := plan.Names[ri]
			if base.RegionIndex(name) == -1 {
				delta = append(delta, name)
			}
		}
		if len(delta) <= shardInsertMax {
			sub, err := Insert(ctx, base, subIn, delta...)
			if err == nil {
				return sub, nil
			}
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, err
			}
			// Any other Insert failure is a routing decision: fall through
			// to the cold per-shard build.
		}
	}
	return BuildCtx(ctx, subIn)
}

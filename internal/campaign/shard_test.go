package campaign

import (
	"os"
	"strings"
	"sync/atomic"
	"testing"
)

// TestShardCellPartition pins the contiguous-span contract: every cell
// owned exactly once, spans in canonical order, any shard count.
func TestShardCellPartition(t *testing.T) {
	t.Parallel()
	cells := make([]PlanCell, 7)
	for i := range cells {
		cells[i].Index = i
	}
	for shards := 1; shards <= 9; shards++ {
		seen := 0
		prev := -1
		for k := 0; k < shards; k++ {
			span := shardSpan(Plan{}, cells, shards, k)
			for _, c := range span {
				if c.Index != prev+1 {
					t.Fatalf("shards=%d shard=%d: cell %d follows %d, want contiguous ascending",
						shards, k, c.Index, prev)
				}
				prev = c.Index
				seen++
			}
		}
		if seen != len(cells) {
			t.Fatalf("shards=%d: %d cells covered, want %d", shards, seen, len(cells))
		}
	}
}

// TestShardedChurnByteIdentity is the shard half of the determinism
// contract: the churn sweep renders byte-identical JSON whether it runs
// unsharded or split across 1, 2, or 4 in-process shards (each shard's
// report making a JSON round trip through the wire format before merging).
func TestShardedChurnByteIdentity(t *testing.T) {
	t.Parallel()
	p := churnPlan(t)
	render := func(rep *Report) string {
		var sb strings.Builder
		if err := rep.WriteJSON(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	base, err := ExecutePlan(p, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := render(base)
	for _, shards := range []int{1, 2, 4} {
		rep, err := ExecuteSharded(p, shards, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if got := render(rep); got != want {
			t.Errorf("churn JSON diverged at %d shards:\n%s", shards, firstDiff(want, got))
		}
	}
}

// TestShardedGridGolden pins the golden grid bytes across shard counts:
// the export reproduces exactly when the campaign is cell-sharded,
// including retained raw runs riding the shard wire format.
func TestShardedGridGolden(t *testing.T) {
	t.Parallel()
	want, err := os.ReadFile("testdata/grid_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	g := goldenGrid()
	for _, shards := range []int{1, 2, 3} {
		rep, err := ExecuteSharded(g.Plan(), shards, Options{Workers: 4, RetainRuns: true})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := rep.WriteJSON(&sb); err != nil {
			t.Fatal(err)
		}
		if got := sb.String(); got != string(want) {
			t.Fatalf("grid JSON diverged from golden at %d shards\ngolden %d bytes, got %d bytes\n%s",
				shards, len(want), len(got), firstDiff(string(want), got))
		}
	}
}

// TestShardMoreShardsThanCells: shards owning zero cells are legal and the
// merge still reassembles the full report.
func TestShardMoreShardsThanCells(t *testing.T) {
	t.Parallel()
	p := churnPlan(t)
	n := p.Size()
	rep, err := ExecuteSharded(p, n+3, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	base, err := ExecutePlan(p, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var a, b strings.Builder
	if err := rep.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := base.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("over-sharded report diverged:\n%s", firstDiff(b.String(), a.String()))
	}
}

// TestMergeShardsValidation: the parent rejects incomplete or inconsistent
// shard sets instead of silently emitting a partial report.
func TestMergeShardsValidation(t *testing.T) {
	t.Parallel()
	p := churnPlan(t).withDefaults()
	r0, err := ExecuteShard(p, 2, 0, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := ExecuteShard(p, 2, 1, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := MergeShards(p, []*ShardReport{r0}); err == nil {
		t.Error("want error for missing shard")
	}
	if _, err := MergeShards(p, []*ShardReport{r0, r0, r1}); err == nil {
		t.Error("want error for duplicate cell ownership")
	}
	bad := *r0
	bad.Schema = "bogus/v0"
	if _, err := MergeShards(p, []*ShardReport{&bad, r1}); err == nil {
		t.Error("want error for schema mismatch")
	}
	if _, err := MergeShards(p, []*ShardReport{r0, r1}); err != nil {
		t.Errorf("valid shard set rejected: %v", err)
	}
}

// TestShardedProgress: the fold of per-shard progress into one stream is
// monotone and finishes at the exact campaign total.
func TestShardedProgress(t *testing.T) {
	t.Parallel()
	p := churnPlan(t)
	var last atomic.Int64
	mono := true
	_, err := ExecuteSharded(p, 2, Options{
		Workers:       2,
		ProgressEvery: 1,
		Progress: func(done, total int) {
			if int64(done) < last.Load() {
				mono = false
			}
			last.Store(int64(done))
			if total != p.withDefaults().Runs() {
				t.Errorf("progress total %d, want %d", total, p.withDefaults().Runs())
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !mono {
		t.Error("progress went backwards")
	}
	if got, want := last.Load(), int64(p.withDefaults().Runs()); got != want {
		t.Errorf("final progress %d, want %d", got, want)
	}
}

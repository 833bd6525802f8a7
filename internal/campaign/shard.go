package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"rsstcp/internal/stats"
)

// Cell-sharded campaign execution: a plan's canonical cell list is cut into
// contiguous spans, one span per shard; each shard runs its span and hands
// exact aggregation state to a merge. Campaigns run on ExecutePlan's worker
// pool; this in-process shard executor remains because the benchmark
// (bench/) times it beside that pool. Sharding is invisible in the output:
// every replicate's seed is a pure function of (BaseSeed, cell key,
// replicate) — independent of which other cells share a shard — and the
// state transport (stats.AccumulatorState) is bit-exact, so the merged
// Report is byte-identical to an unsharded ExecutePlan at any shard count.
//
// The partition is cell-aligned: a cell's replicates never straddle shards.
// That choice makes the merge exact by construction — each accumulator
// arrives complete, so cross-shard combination reduces to adopting the
// transported Welford + quantile-buffer state in canonical cell order and
// summarizing in the merge, with no inter-accumulator Merge in the
// P²-approximation regime (where merging is inherently lossy).

// ShardSchema identifies the shard wire format.
const ShardSchema = "rsstcp-shard/v1"

// ShardMetricState is one metric's exact aggregation state for one cell.
type ShardMetricState struct {
	Name  string                 `json:"name"`
	State stats.AccumulatorState `json:"state"`
}

// ShardCell is one completed cell as computed by a shard: its canonical
// index and key (for coverage validation in the merge), the retained raw
// replicates when the campaign retains runs, and the exact per-metric
// accumulator states.
type ShardCell struct {
	Index   int                `json:"index"`
	Key     string             `json:"key"`
	Runs    []Replicate        `json:"runs,omitempty"`
	Metrics []ShardMetricState `json:"metrics"`
}

// ShardReport is one shard's complete output: the partition coordinates
// (for validation against the merging plan) and the owned cells in
// canonical order.
type ShardReport struct {
	Schema string      `json:"schema"`
	Shards int         `json:"shards"`
	Shard  int         `json:"shard"`
	Cells  int         `json:"cells"` // total cells in the plan, all shards
	Owned  []ShardCell `json:"owned"`
}

// WriteJSON streams the shard report to w.
func (r *ShardReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(r)
}

// ReadShardReport decodes a shard report and checks its schema tag.
func ReadShardReport(rd io.Reader) (*ShardReport, error) {
	var r ShardReport
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("campaign: decoding shard report: %w", err)
	}
	if r.Schema != ShardSchema {
		return nil, fmt.Errorf("campaign: shard report schema %q, want %q", r.Schema, ShardSchema)
	}
	return &r, nil
}

func validateShardArgs(shards, shard int) error {
	if shards < 1 {
		return fmt.Errorf("campaign: shard count %d, want >= 1", shards)
	}
	if shard < 0 || shard >= shards {
		return fmt.Errorf("campaign: shard index %d out of range [0, %d)", shard, shards)
	}
	return nil
}

// ExecuteShard runs shard `shard` of `shards` over the plan's cell product
// and returns its wire-format report. Every shard of one campaign must be
// given the identical plan (same axes, same BaseSeed); each re-derives the
// canonical cell list and takes its span.
func ExecuteShard(p Plan, shards, shard int, opts Options) (*ShardReport, error) {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cells := p.Cells()
	if err := validateShardArgs(shards, shard); err != nil {
		return nil, err
	}
	owned := shardSpan(p, cells, shards, shard)

	// Capture each cell's exact accumulator state at the instant the cell
	// completes, before the folder recycles the accumulators.
	states := make([][]stats.AccumulatorState, len(owned))
	onCell := func(local int, accs []stats.Accumulator) {
		sts := make([]stats.AccumulatorState, len(accs))
		for i := range accs {
			sts[i] = accs[i].State()
		}
		states[local] = sts
	}
	out, err := executeCells(p, owned, opts, onCell)
	if err != nil {
		return nil, err
	}

	rep := &ShardReport{
		Schema: ShardSchema,
		Shards: shards,
		Shard:  shard,
		Cells:  len(cells),
		Owned:  make([]ShardCell, len(owned)),
	}
	for i := range owned {
		sc := ShardCell{
			Index:   owned[i].Index,
			Key:     owned[i].Key,
			Metrics: make([]ShardMetricState, len(p.Metrics)),
		}
		if opts.RetainRuns {
			sc.Runs = out[i].Runs
		}
		for mi, m := range p.Metrics {
			sc.Metrics[mi] = ShardMetricState{Name: m.Name, State: states[i][mi]}
		}
		rep.Owned[i] = sc
	}
	return rep, nil
}

// MergeShards reassembles shard reports into the exact Report an unsharded
// ExecutePlan of the same plan would produce. It validates full coverage
// (every canonical cell owned exactly once, keys matching), restores each
// cell's accumulators from their transported state, and computes the
// summaries in canonical cell order — so the resulting
// JSON export is byte-identical at any shard count.
func MergeShards(p Plan, reports []*ShardReport) (*Report, error) {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cells := p.Cells()

	// Index the incoming cells, validating partition coordinates.
	byIndex := make(map[int]*ShardCell, len(cells))
	for _, r := range reports {
		if r.Schema != ShardSchema {
			return nil, fmt.Errorf("campaign: shard report schema %q, want %q", r.Schema, ShardSchema)
		}
		if r.Cells != len(cells) {
			return nil, fmt.Errorf("campaign: shard %d/%d reports %d total cells, plan has %d",
				r.Shard, r.Shards, r.Cells, len(cells))
		}
		for i := range r.Owned {
			sc := &r.Owned[i]
			if prev, dup := byIndex[sc.Index]; dup {
				return nil, fmt.Errorf("campaign: cell %d (%s) owned by two shards (also %s)",
					sc.Index, sc.Key, prev.Key)
			}
			byIndex[sc.Index] = sc
		}
	}

	rep := &Report{Plan: p, Cells: make([]ReportCell, len(cells))}
	for ci, c := range cells {
		sc, ok := byIndex[c.Index]
		if !ok {
			return nil, fmt.Errorf("campaign: cell %d (%s) missing from shard reports", c.Index, c.Key)
		}
		if sc.Key != c.Key {
			return nil, fmt.Errorf("campaign: cell %d key mismatch: shard says %q, plan says %q",
				c.Index, sc.Key, c.Key)
		}
		if len(sc.Metrics) != len(p.Metrics) {
			return nil, fmt.Errorf("campaign: cell %d (%s): %d metric states, plan has %d metrics",
				c.Index, c.Key, len(sc.Metrics), len(p.Metrics))
		}
		out := ReportCell{
			Index:   c.Index,
			Key:     c.Key,
			Labels:  c.Labels,
			Runs:    sc.Runs,
			Metrics: make([]MetricSummary, len(p.Metrics)),
			config:  c.Config,
		}
		for mi, m := range p.Metrics {
			if sc.Metrics[mi].Name != m.Name {
				return nil, fmt.Errorf("campaign: cell %d (%s): metric %d is %q, plan says %q",
					c.Index, c.Key, mi, sc.Metrics[mi].Name, m.Name)
			}
			acc, err := stats.AccumulatorFromState(sc.Metrics[mi].State)
			if err != nil {
				return nil, fmt.Errorf("campaign: cell %d (%s) metric %q: %w", c.Index, c.Key, m.Name, err)
			}
			out.Metrics[mi] = MetricSummary{Name: m.Name, Summary: acc.Summary()}
		}
		rep.Cells[ci] = out
	}
	return rep, nil
}

// ExecuteSharded runs the plan as `shards` in-process shards (concurrently,
// splitting the worker budget) and merges them. Each shard's report makes a
// JSON round trip before merging, so the wire format is exercised exactly
// as written.
func ExecuteSharded(p Plan, shards int, opts Options) (*Report, error) {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := validateShardArgs(shards, 0); err != nil {
		return nil, err
	}

	// Split the worker budget so total concurrency matches the unsharded
	// run; every shard gets at least one worker.
	workers := opts.workers()
	perShard := workers / shards
	if perShard < 1 {
		perShard = 1
	}

	// Progress arrives per shard; fold the per-shard counts into one
	// campaign-wide monotone stream.
	var (
		progMu   sync.Mutex
		progLast = make([]int, shards)
		progDone int
	)
	total := p.Runs()
	shardOpts := func(k int) Options {
		o := opts
		o.Workers = perShard
		if opts.Progress != nil {
			o.Progress = func(done, _ int) {
				// Serialized under the mutex: shards report concurrently,
				// but the user's callback sees one monotone stream.
				progMu.Lock()
				progDone += done - progLast[k]
				progLast[k] = done
				opts.Progress(progDone, total)
				progMu.Unlock()
			}
		}
		return o
	}

	reports := make([]*ShardReport, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	wg.Add(shards)
	for k := 0; k < shards; k++ {
		go func(k int) {
			defer wg.Done()
			r, err := ExecuteShard(p, shards, k, shardOpts(k))
			if err != nil {
				errs[k] = err
				return
			}
			// Round-trip through the wire format: what a shard
			// serializes is exactly what the merge reads.
			var buf []byte
			if buf, err = json.Marshal(r); err != nil {
				errs[k] = err
				return
			}
			var back ShardReport
			if err = json.Unmarshal(buf, &back); err != nil {
				errs[k] = err
				return
			}
			reports[k] = &back
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return MergeShards(p, reports)
}

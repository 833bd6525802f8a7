package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"rsstcp/internal/sim"
	"rsstcp/internal/unit"
	"rsstcp/internal/web100"
)

var updateChurnGolden = flag.Bool("update-churn-golden", false,
	"rewrite testdata/churn_golden.json from this build's output")

// churnGoldenRuns is the population behind testdata/churn_golden.json: every
// arrival process under both algorithms of the paper, three seeds, endpoint
// timers on the calendar heap and on the wheel. Load 0.8 of bounded-Pareto
// sizes keeps the buffers occupied, so the runs see loss recovery, RTOs and
// elephants next to one-segment mice — a bundle's next owner is rarely like
// its last.
func churnGoldenRuns() map[string]Config {
	runs := map[string]Config{}
	for _, arrivals := range []string{"poisson:1", "mmpp:20:200:500ms", "web:5:8:2s"} {
		for _, alg := range []Algorithm{AlgStandard, AlgRestricted} {
			for seed := uint64(1); seed <= 3; seed++ {
				for _, sched := range []string{"heap", "wheel"} {
					key := fmt.Sprintf("%s/%s/seed%d/%s", arrivals, alg, seed, sched)
					runs[key] = Config{
						Path: PaperPath(),
						Churn: &ChurnSpec{
							Arrivals: arrivals,
							Load:     0.8,
							Size:     "pareto:1.2:4k:10M",
							Flow:     FlowSpec{Alg: alg},
						},
						Duration:  3 * time.Second,
						Seed:      seed,
						Scheduler: sched,
						Traceless: true,
					}
				}
			}
		}
	}
	return runs
}

// resultDigest is the SHA-256 of the run's whole Result as JSON, per-flow
// records included.
func resultDigest(t *testing.T, cfg Config) string {
	t.Helper()
	s, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	res.Rec = nil
	if len(res.Flows) == 0 {
		t.Fatal("golden run completed no flow — bad test premise")
	}
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(js)
	return hex.EncodeToString(sum[:])
}

// TestChurnGoldenAcrossRecycling: the digests were captured at the commit
// before detach parked flow bundles, when every arrival was built from the
// allocator. A churn run on recycled bundles must reproduce them to the byte.
func TestChurnGoldenAcrossRecycling(t *testing.T) {
	t.Parallel()
	const path = "testdata/churn_golden.json"
	got := map[string]string{}
	for key, cfg := range churnGoldenRuns() {
		got[key] = resultDigest(t, cfg)
	}
	if *updateChurnGolden {
		js, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden holds %d runs, this build makes %d", len(want), len(got))
	}
	for key, w := range want {
		if got[key] != w {
			t.Errorf("%s: Result digest %s, golden %s", key, got[key], w)
		}
	}
}

// warmTurnoverScenario is a paper-path scenario whose arrival process never
// fires inside a test, so the test drives AttachFlow itself.
func warmTurnoverScenario(t testing.TB, path PathConfig, flows ...FlowSpec) *Scenario {
	t.Helper()
	s, err := Build(Config{
		Path:        path,
		Flows:       flows,
		Churn:       &ChurnSpec{Arrivals: "poisson:0.001", Size: "fixed:1M"},
		Duration:    time.Hour,
		Traceless:   true,
		RetainFlows: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustAttach(t testing.TB, s *Scenario, spec FlowSpec) *Flow {
	t.Helper()
	f, err := s.AttachFlow(spec)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// emptyStore drops every parked flow component, so the next attach is built
// from the allocator as every attach was before detach parked bundles.
func emptyStore(s *Scenario) {
	s.park.flows, s.park.nics, s.park.rss, s.park.held = nil, nil, nil, nil
}

// TestChurnTurnoverAllocBudget: the whole life of a one-segment flow on a
// warm scenario — attach, one segment out, its ACK back, completion, detach —
// runs on parked components and allocates nothing. Before detach parked
// bundles it cost about twenty objects.
func TestChurnTurnoverAllocBudget(t *testing.T) {
	s := warmTurnoverScenario(t, PaperPath())
	spec := FlowSpec{Alg: AlgStandard, Bytes: 1448}
	life := func() {
		mustAttach(t, s, spec)
		s.Eng.RunFor(200 * time.Millisecond) // more than an RTT
	}
	for i := 0; i < 8; i++ {
		life()
	}
	allocs := testing.AllocsPerRun(2000, life)
	if s.LiveFlows() != 0 {
		t.Fatalf("%d flows still live — bad test premise", s.LiveFlows())
	}
	if allocs > 0 {
		t.Errorf("a flow lifetime allocates %.2f objects, budget 0", allocs)
	}
}

// TestChurnWindowAllocBudget pins what bench/'s churn workload allocates in
// its timed window: both algorithms at seed 1 for 20 s, objects counted
// around RunUntil only, as bench/ counts them. About 22 per 1000 events
// while rung buckets were slices and the store kept a quarter of the live
// population; about 9 with list buckets and a store as large as the
// population.
//
// Not Parallel: it reads global allocator statistics.
func TestChurnWindowAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("the churn window allocation budget is a CI job, not a -short test")
	}
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	objects := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	var allocs, events uint64
	for _, alg := range []Algorithm{AlgStandard, AlgRestricted} {
		cfg := Config{
			Path: PaperPath(),
			Churn: &ChurnSpec{
				Arrivals: "poisson:1",
				Load:     0.8,
				Size:     "pareto:1.2:4k:10M",
				Flow:     FlowSpec{Alg: alg},
			},
			Duration:    20 * time.Second,
			Seed:        1,
			Traceless:   true,
			RetainFlows: -1,
		}
		s, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a0 := objects()
		s.Eng.RunUntil(sim.At(cfg.Duration))
		allocs += objects() - a0
		events += s.Eng.Processed()
	}
	perK := float64(allocs) * 1000 / float64(events)
	t.Logf("%d events, %.2f allocs/kevent in the window", events, perK)
	if perK > 12 {
		t.Errorf("churn window allocates %.2f objects per 1000 events, budget 12", perK)
	}
}

// TestParkedBoundedByLivePopulation detaches a 10 000-flow population one by
// one: the store never holds more than max(parkedFloor, live) components of
// a kind, ends at the floor, and no parked sender keeps a record list above
// parkedRecordCap — the first flows detached are elephants whose lists grew
// well past it.
func TestParkedBoundedByLivePopulation(t *testing.T) {
	t.Parallel()
	const population, elephants = 10000, 20
	s := warmTurnoverScenario(t, PathConfig{Bottleneck: unit.Gbps, TxQueueLen: 1000})
	var flows []*Flow
	for i := 0; i < elephants; i++ {
		flows = append(flows, mustAttach(t, s, FlowSpec{Alg: AlgRestricted, Bytes: 1 << 30}))
	}
	s.Eng.RunFor(time.Second)
	for _, f := range flows {
		if f.Sender.RecordCap() <= parkedRecordCap {
			t.Fatalf("elephant's record list holds %d — bad test premise", f.Sender.RecordCap())
		}
	}
	for i := elephants; i < population; i++ {
		flows = append(flows, mustAttach(t, s, FlowSpec{Alg: AlgRestricted, Bytes: 1 << 20}))
	}
	s.Eng.RunFor(50 * time.Millisecond) // the initial windows leave the NICs
	if s.LiveFlows() != population {
		t.Fatalf("%d flows live, want %d", s.LiveFlows(), population)
	}
	peak := 0
	for _, f := range flows {
		s.DetachFlow(f)
		limit := max(parkedFloor, s.LiveFlows())
		if n := max(len(s.park.flows), len(s.park.nics), len(s.park.rss)); n > limit {
			t.Fatalf("%d components parked with %d flows live, bound %d", n, s.LiveFlows(), limit)
		}
		peak = max(peak, len(s.park.flows))
	}
	if peak < population/4 {
		t.Errorf("store peaked at %d bundles — the bound never followed the population", peak)
	}
	if len(s.park.flows) != parkedFloor || len(s.park.nics) != parkedFloor || len(s.park.rss) != parkedFloor {
		t.Errorf("store ends at %d flows, %d NICs, %d controllers; want the floor %d of each",
			len(s.park.flows), len(s.park.nics), len(s.park.rss), parkedFloor)
	}
	for i, f := range s.park.flows {
		if c := f.Sender.RecordCap(); c > parkedRecordCap {
			t.Errorf("parked sender %d keeps a %d-record list, cap %d", i, c, parkedRecordCap)
		}
	}
	s.Eng.RunFor(2 * time.Second)
	if got := s.Eng.Leaked(); got != 0 {
		t.Errorf("%d calendar entries leaked", got)
	}
	if gets, releases := s.SegCounters(); gets != releases {
		t.Errorf("segment pool imbalance: %d gets, %d releases", gets, releases)
	}
}

// TestChurnFlowHandleEndsAtCompletion documents the handle contract: the
// *Flow AttachFlow returns describes its flow while the flow is attached;
// once the flow completed, its record is the durable output and a later
// arrival is built on the very same bundle, so a handle kept past completion
// reads — and would detach — somebody else's flow.
func TestChurnFlowHandleEndsAtCompletion(t *testing.T) {
	t.Parallel()
	cfg := churnCfg()
	cfg.Churn.Arrivals = "poisson:0.001"
	cfg.Duration = time.Hour
	s, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := mustAttach(t, s, FlowSpec{Alg: AlgStandard, Bytes: 30_000})
	id := a.ID
	s.Eng.RunFor(30 * time.Millisecond)
	if a.Spec.Bytes != 30_000 || a.Sender.Stats().DataSegsOut == 0 || a.Sender.Finished() {
		t.Fatalf("live handle does not describe its flow: %+v", a.Spec)
	}
	s.Eng.RunFor(time.Second)
	recs := s.ResultFor(0).Flows
	if len(recs) != 1 || recs[0].ID != id || recs[0].Bytes != 30_000 {
		t.Fatalf("completion left records %+v", recs)
	}
	// The bundle is held back one completion (parked.held), so the second
	// arrival after a's completion is the one built on it.
	mustAttach(t, s, FlowSpec{Alg: AlgStandard, Bytes: 1448})
	s.Eng.RunFor(time.Second)
	c := mustAttach(t, s, FlowSpec{Alg: AlgRestricted, Bytes: 5_000_000})
	if c != a {
		t.Fatal("the third flow was not built on the first flow's bundle")
	}
	if a.Spec.Bytes != 5_000_000 || a.RSS == nil || a.Sender.Finished() {
		t.Errorf("stale handle reads %+v, want the new owner's state", a.Spec)
	}
}

// stalledDetachRun puts a dynamic flow on a shared NIC that a stall-wait
// flow keeps full, detaches it at an instant its resume waker is registered
// with that NIC, attaches a successor on the same NIC and returns the
// successor's Web100 block and stall count two seconds on. With fresh set the
// store is emptied first, so the successor is built from the allocator.
func stalledDetachRun(t *testing.T, fresh bool) (web100.Stats, int64) {
	t.Helper()
	path := PaperPath()
	path.TxQueueLen = 10
	spec := FlowSpec{Alg: AlgStallWait, Host: 1}
	s := warmTurnoverScenario(t, path, spec)
	s.Eng.RunFor(500 * time.Millisecond)
	a := mustAttach(t, s, spec)
	for step := 0; !a.Sender.WakerArmed(); step++ {
		if step == 100000 {
			t.Fatal("the attached flow never stalled — bad test premise")
		}
		s.Eng.RunFor(10 * time.Microsecond)
	}
	s.DetachFlow(a)
	if fresh {
		emptyStore(s)
	}
	b := mustAttach(t, s, spec)
	s.Eng.RunFor(2 * time.Second)
	return b.Sender.Stats().Snapshot(s.Eng.Now()), b.Stalls.Value()
}

// TestDetachWhileStalledDoesNotWakeNextOwner: a sender detached while
// stalled leaves its resume callback with the NIC. Were its bundle handed to
// the next arrival, that flow would be woken by a registration it never made
// (and, stalling on the same NIC, would register the callback a second time);
// its counters must instead equal those of a flow built from the allocator.
func TestDetachWhileStalledDoesNotWakeNextOwner(t *testing.T) {
	t.Parallel()
	wantStats, wantStalls := stalledDetachRun(t, true)
	gotStats, gotStalls := stalledDetachRun(t, false)
	if wantStats.DataSegsOut == 0 || wantStalls == 0 {
		t.Fatalf("successor sent %d segments, stalled %d times — bad test premise",
			wantStats.DataSegsOut, wantStalls)
	}
	if gotStalls != wantStalls || gotStats != wantStats {
		t.Errorf("successor of a stalled flow diverged from a fresh one:\nfresh:    %d stalls %+v\nrecycled: %d stalls %+v",
			wantStalls, wantStats, gotStalls, gotStats)
	}
}

// hookAttachRun completes a flow whose completion hook attaches the next
// one, lets both finish, and returns the second flow's bundle and the records.
// With fresh set the hook empties the store first.
func hookAttachRun(t *testing.T, fresh bool) (first, second *Flow, recs []FlowRecord) {
	t.Helper()
	cfg := churnCfg()
	cfg.Churn.Arrivals = "poisson:0.001"
	cfg.Duration = time.Hour
	s, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first = mustAttach(t, s, FlowSpec{Alg: AlgStandard, Bytes: 100_000})
	complete := first.Sender.OnComplete
	first.Sender.OnComplete = func() {
		complete()
		if fresh {
			emptyStore(s)
		}
		second = mustAttach(t, s, FlowSpec{Alg: AlgStandard, Bytes: 200_000})
	}
	s.Eng.RunFor(5 * time.Second)
	if s.LiveFlows() != 0 {
		t.Fatalf("%d flows still live", s.LiveFlows())
	}
	return first, second, s.ResultFor(0).Flows
}

// TestAttachFromCompletionHookGetsAnotherBundle: a completion hook runs
// inside the completing sender's Receive, which goes on to use the sender
// after the hook returns. A flow attached from the hook must therefore not be
// built on the completing bundle, and both flows finish as they do when the
// second is built from the allocator.
func TestAttachFromCompletionHookGetsAnotherBundle(t *testing.T) {
	t.Parallel()
	_, _, want := hookAttachRun(t, true)
	first, second, got := hookAttachRun(t, false)
	if second == nil || second == first || second.Sender == first.Sender {
		t.Fatal("the flow attached from the completion hook owns the completing bundle")
	}
	if len(want) != 2 || len(got) != 2 {
		t.Fatalf("%d records fresh, %d recycled, want 2 each", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("record %d diverged:\nfresh:    %+v\nrecycled: %+v", i, want[i], got[i])
		}
	}
}

// BenchmarkChurnTurnover reports what flow turnover costs on the bench's
// churn configuration, 2 s simulated per iteration: completed flows per
// second, and allocations and bytes per completed flow.
func BenchmarkChurnTurnover(b *testing.B) {
	cfg := Config{
		Path: PaperPath(),
		Churn: &ChurnSpec{
			Arrivals: "poisson:1",
			Load:     0.8,
			Size:     "pareto:1.2:4k:10M",
			Flow:     FlowSpec{Alg: AlgStandard},
		},
		Duration:    2 * time.Second,
		Traceless:   true,
		RetainFlows: -1,
	}
	s, err := Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.Run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	flows := 0.0
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if err := s.Reset(cfg); err != nil {
			b.Fatal(err)
		}
		flows += float64(s.Run().FCT.Count)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(flows/b.Elapsed().Seconds(), "flows/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/flows, "allocs/flow")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/flows, "B/flow")
}

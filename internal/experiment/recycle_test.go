package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"rsstcp/internal/packet"
	"rsstcp/internal/sim"
	"rsstcp/internal/tcp"
	"rsstcp/internal/unit"
	"rsstcp/internal/web100"
)

var updateChurnGolden = flag.Bool("update-churn-golden", false,
	"rewrite testdata/churn_golden.json from this build's output")

// churnGoldenRuns is the population behind testdata/churn_golden.json: every
// arrival process under both algorithms of the paper, three seeds, endpoint
// timers on the calendar and on the wheel. A key's last field says where
// the timers ran when the golden was captured: "heap" on the calendar, then
// the binary heap, "wheel" on the wheel over it. Both now run on the
// ladder. Load 0.8 of bounded-Pareto sizes keeps the buffers occupied, so
// the runs see loss recovery, RTOs and elephants next to one-segment mice —
// a bundle's next owner is rarely like its last.
func churnGoldenRuns() map[string]Config {
	runs := map[string]Config{}
	for _, arrivals := range []string{"poisson:1", "mmpp:20:200:500ms", "web:5:8:2s"} {
		for _, alg := range []Algorithm{AlgStandard, AlgRestricted} {
			for seed := uint64(1); seed <= 3; seed++ {
				for _, timers := range []string{"heap", "wheel"} {
					key := fmt.Sprintf("%s/%s/seed%d/%s", arrivals, alg, seed, timers)
					runs[key] = Config{
						Path: PaperPath(),
						Churn: &ChurnSpec{
							Arrivals: arrivals,
							Load:     0.8,
							Size:     "pareto:1.2:4k:10M",
							Flow:     FlowSpec{Alg: alg},
						},
						Duration:   3 * time.Second,
						Seed:       seed,
						TimerWheel: timers == "wheel",
						Traceless:  true,
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
	if len(res.Flows) == 0 {
		t.Fatal("golden run completed no flow — bad test premise")
	}
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	// The digests were captured while Result still ended in a recorder
	// field, null on every run here; its bytes keep their place.
	js = append(js[:len(js)-1], `,"Rec":null}`...)
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

// emptyStore drops every parked flow component, draining bundles included,
// so the next attach is built from the allocator as every attach was before
// detach parked bundles.
func emptyStore(s *Scenario) {
	s.park.flows, s.park.rss, s.park.held, s.park.draining = nil, nil, nil, nil
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

// attachAllocSites attaches and detaches n flows of spec, each on a fresh
// bundle and NIC (the store emptied first), and returns what AttachFlow
// allocated per flow, by the function that allocated it. The scenario's own
// tables and the event pool are warmed first, and the detached flows drain
// between attaches. It profiles every allocation while it runs.
func attachAllocSites(t *testing.T, s *Scenario, spec FlowSpec, n int) map[string]float64 {
	t.Helper()
	life := func() {
		emptyStore(s)
		s.DetachFlow(mustAttach(t, s, spec))
		s.Eng.RunFor(100 * time.Millisecond)
	}
	for i := 0; i < 8; i++ {
		life()
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := allocsByStack()
	for i := 0; i < n; i++ {
		life()
	}
	sites := map[string]float64{}
	for stk, objs := range allocsByStack() {
		if objs -= before[stk]; objs == 0 {
			continue
		}
		site, inAttach := "", false
		frames := runtime.CallersFrames(stk[:])
		for more := true; more; {
			var fr runtime.Frame
			fr, more = frames.Next()
			if site == "" && fr.Function != "" && !strings.HasPrefix(fr.Function, "runtime.") {
				site = fr.Function
			}
			inAttach = inAttach || strings.HasSuffix(fr.Function, ".(*Scenario).AttachFlow")
		}
		if inAttach {
			sites[site] += float64(objs) / float64(n)
		}
	}
	return sites
}

// allocsByStack returns the cumulative allocation count of every stack in
// the memory profile, made current by a collection.
func allocsByStack() map[[32]uintptr]int64 {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for n, ok := runtime.MemProfile(nil, true); !ok; {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
		recs = recs[:n]
	}
	m := map[[32]uintptr]int64{}
	for _, r := range recs {
		m[r.Stack0] += r.AllocObjects
	}
	return m
}

// TestFreshBundleAllocs counts the objects AttachFlow allocates for a flow
// the store cannot serve: a standard flow's bundle (its NIC inside) and
// resume callback, and a restricted flow's controller besides. First growths
// are left out: the sender's record list and the segment pool, which the
// flow's first send grows, the node store's range chunks, an ACK delay
// line's ring, the restricted controller's window list, and the scenario's
// flight-recorder ring, which doubles on whichever record finds it full —
// inside an attach as often as not. While the NIC was its own object a
// standard flow cost three; when
// every bundle bound its own callbacks (completion, two timer fires, RTO,
// delayed ACK, and a restricted flow's tick), eight.
//
// Not Parallel: it profiles every allocation of the process.
func TestFreshBundleAllocs(t *testing.T) {
	firstGrowth := map[string]bool{
		"rsstcp/internal/tcp.(*Sender).trySend":              true, // record list
		"rsstcp/internal/tcp.(*Store).newRange":              true, // range chunk
		"rsstcp/internal/packet.(*Pool).Get":                 true, // segment pool
		"rsstcp/internal/core.(*RestrictedSlowStart).Reset":  true, // window list
		"rsstcp/internal/telemetry.(*FlightRecorder).Record": true, // event ring
	}
	for _, tc := range []struct {
		alg    Algorithm
		budget float64
	}{{AlgStandard, 2}, {AlgRestricted, 3}} {
		s := warmTurnoverScenario(t, PaperPath())
		sites := attachAllocSites(t, s, FlowSpec{Alg: tc.alg, Bytes: 1 << 20}, 200)
		total := 0.0
		for site, n := range sites {
			// A delay line's ring grows in the generic fifo's grow method.
			if firstGrowth[site] || strings.Contains(site, "netem.(*fifo[") {
				continue
			}
			total += n
			t.Logf("%s: %.2f objects at %s", tc.alg, n, site)
		}
		if total > tc.budget {
			t.Errorf("%s: a fresh bundle costs AttachFlow %.2f objects, budget %.0f", tc.alg, total, tc.budget)
		}
	}
}

// TestChurnWindowAllocBudget pins what bench/'s churn workload allocates in
// its timed window: both algorithms at seed 1 for 20 s, objects counted
// around RunUntil only, as bench/ counts them. About 22 per 1000 events
// while rung buckets were slices and the store kept a quarter of the live
// population; about 9 with list buckets and a store as large as the
// population; about 4.0–4.5 since queues link their segments and range
// lists borrow tcp.Store nodes.
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
	if perK > 6 {
		t.Errorf("churn window allocates %.2f objects per 1000 events, budget 6", perK)
	}
}

// TestParkedBoundedByLivePopulation detaches a 10 000-flow population one by
// one: the store never holds more than max(parkedFloor, live) components of
// a kind, ends at the floor, and no parked sender keeps a record list above
// parkedRecordCap — the first flows detached are elephants whose lists grew
// well past it. No parked receiver keeps a range node: once the population
// is gone every range is back in the scenario's tcp.Store, and the store
// holds no more than twice the peak of ranges out at once, plus its first
// chunk.
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
		if n := max(len(s.park.flows), len(s.park.rss)); n > limit {
			t.Fatalf("%d components parked with %d flows live, bound %d", n, s.LiveFlows(), limit)
		}
		peak = max(peak, len(s.park.flows))
	}
	if peak < population/4 {
		t.Errorf("store peaked at %d bundles — the bound never followed the population", peak)
	}
	if len(s.park.flows) != parkedFloor || len(s.park.rss) != parkedFloor {
		t.Errorf("store ends at %d flows, %d controllers; want the floor %d of each",
			len(s.park.flows), len(s.park.rss), parkedFloor)
	}
	for i, f := range s.park.flows {
		if c := f.Sender.RecordCap(); c > parkedRecordCap {
			t.Errorf("parked sender %d keeps a %d-record list, cap %d", i, c, parkedRecordCap)
		}
	}
	const firstChunk = 8
	if c := s.nodes.Stats(); c.Out != 0 || c.Allocated > 2*c.Peak+firstChunk {
		t.Errorf("store ranges with every flow detached: %d out, %d allocated, peak %d out",
			c.Out, c.Allocated, c.Peak)
	}
	s.Eng.RunFor(2 * time.Second)
	if got := s.Eng.Leaked(); got != 0 {
		t.Errorf("%d calendar entries leaked", got)
	}
	if gets, releases := s.SegCounters(); gets != releases {
		t.Errorf("segment pool imbalance: %d gets, %d releases", gets, releases)
	}
}

// TestDrainingNICKeepsBundleUntilIdle: a flow detached while its NIC still
// holds segments leaves its bundle out of the store until the NIC has
// drained. An attach meanwhile gets another bundle; the first attach after
// the NIC went idle gets this one back.
func TestDrainingNICKeepsBundleUntilIdle(t *testing.T) {
	t.Parallel()
	s := warmTurnoverScenario(t, PaperPath())
	emptyStore(s)
	spec := FlowSpec{Alg: AlgStandard, Bytes: 50 << 20}
	a := mustAttach(t, s, spec)
	s.Eng.RunFor(870 * time.Millisecond)
	if a.NIC().Idle() {
		t.Fatal("detached with an idle NIC — bad test premise")
	}
	s.DetachFlow(a)
	b := mustAttach(t, s, spec)
	if b == a {
		t.Fatal("a bundle whose NIC still drains went to the next flow")
	}
	s.Eng.RunFor(time.Second)
	if !a.NIC().Idle() {
		t.Fatal("the detached flow's NIC never drained — bad test premise")
	}
	c := mustAttach(t, s, spec)
	if c != a {
		t.Error("the drained bundle was not reused")
	}
	s.StopChurn()
	s.DetachFlow(b)
	s.DetachFlow(c)
	s.Eng.RunFor(2 * time.Second)
	if gets, releases := s.SegCounters(); gets != releases {
		t.Errorf("segment pool imbalance after teardown: %d gets, %d releases", gets, releases)
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
	if a.Bytes != 30_000 || a.Sender.Stats().DataSegsOut == 0 || a.Sender.Finished() {
		t.Fatalf("live handle does not describe its flow: %d bytes, %+v", a.Bytes, *a.Spec)
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
	if a.Bytes != 5_000_000 || a.RSS == nil || a.Sender.Finished() {
		t.Errorf("stale handle reads %d bytes, %+v, want the new owner's state", a.Bytes, *a.Spec)
	}
}

// TestReleasedSenderReadsZero: detaching a dynamic flow retires its sender's
// window state, so the window and sequence accessors and the snapshot's
// window gauges read 0 while the bundle waits in the store; its Web100
// counters, folded into the churn totals, stay. A detached static flow keeps
// its window, which its Result entry reads.
func TestReleasedSenderReadsZero(t *testing.T) {
	t.Parallel()
	s := warmTurnoverScenario(t, PathConfig{}, FlowSpec{Alg: AlgStandard})
	static := s.Flows[0]
	s.Eng.RunFor(100 * time.Millisecond)
	f := mustAttach(t, s, FlowSpec{Alg: AlgStandard, SACK: true})
	s.Eng.RunFor(200 * time.Millisecond)
	window := func(f *Flow) [5]int64 {
		return [...]int64{f.Sender.Cwnd(), f.Sender.Ssthresh(), f.Sender.FlightSize(), f.Sender.SndUna(), f.Sender.SndNxt()}
	}
	for i, v := range window(f) {
		if v == 0 {
			t.Fatalf("live flow reads cwnd, ssthresh, flight, una, nxt = %v: entry %d is 0", window(f), i)
		}
	}
	if st := f.Sender.Snapshot(s.Eng.Now()); st.CurCwnd == 0 || st.CurSsthresh == 0 || st.CurRwnd == 0 {
		t.Fatalf("live flow's snapshot reads window gauges %d/%d/%d, want nonzero", st.CurCwnd, st.CurSsthresh, st.CurRwnd)
	}
	segsOut := f.Sender.Stats().DataSegsOut
	s.DetachFlow(f)
	s.DetachFlow(static)
	if got := window(f); got != [5]int64{} {
		t.Errorf("detached dynamic flow reads cwnd, ssthresh, flight, una, nxt = %v, want all 0", got)
	}
	st := f.Sender.Snapshot(s.Eng.Now())
	if st.CurCwnd != 0 || st.CurSsthresh != 0 || st.CurRwnd != 0 {
		t.Errorf("detached dynamic flow's snapshot reads window gauges %d/%d/%d, want 0", st.CurCwnd, st.CurSsthresh, st.CurRwnd)
	}
	if st.DataSegsOut != segsOut || segsOut == 0 {
		t.Errorf("detached dynamic flow's snapshot counts %d segments out, want its %d", st.DataSegsOut, segsOut)
	}
	if w := window(static); w[0] == 0 || w[3] == 0 {
		t.Errorf("detached static flow reads cwnd, ssthresh, flight, una, nxt = %v: want its last window", w)
	}
}

// TestRecycledIDDropsStaleGeneration: a detached flow's FlowID goes to a
// later arrival under a new generation. A data segment and an ACK stamped
// with the old generation must be released by the flow table, not handed to
// the ID's new owner, whose counters stay as they were.
func TestRecycledIDDropsStaleGeneration(t *testing.T) {
	t.Parallel()
	s := warmTurnoverScenario(t, PaperPath())
	spec := FlowSpec{Alg: AlgStandard, Bytes: 1 << 20}
	a := mustAttach(t, s, spec)
	id, gen := a.ID, uint32(reflect.ValueOf(&a.Sender).Elem().FieldByName("gen").Uint())
	s.Eng.RunFor(100 * time.Millisecond)
	s.DetachFlow(a)
	s.Eng.RunFor(time.Second) // a's segments in flight land and are released
	b := mustAttach(t, s, spec)
	if b.ID != id {
		t.Fatalf("second flow got ID %d, want the recycled %d — bad test premise", b.ID, id)
	}
	s.Eng.RunFor(100 * time.Millisecond)

	data, ack := s.segs.Get(), s.segs.Get()
	data.Flow, data.Gen, data.Seq, data.Len, data.Flags = id, gen, b.Receiver.RcvNxt(), 1448, packet.FlagACK
	ack.Flow, ack.Gen, ack.Ack, ack.Flags = id, gen, b.Sender.SndNxt(), packet.FlagACK
	snd, rcv := *b.Sender.Stats(), b.Receiver.RcvNxt()
	gets, releases := s.SegCounters()
	(*dataDemux)(&s.byID).Receive(data)
	(*ackDemux)(&s.byID).Receive(ack)
	if g, r := s.SegCounters(); g != gets || r != releases+2 {
		t.Errorf("stale segments: %d gets and %d releases, want 0 and 2", g-gets, r-releases)
	}
	if *b.Sender.Stats() != snd || b.Receiver.RcvNxt() != rcv {
		t.Errorf("stale segments reached the ID's new owner:\nbefore: %+v rcv.nxt %d\nafter:  %+v rcv.nxt %d",
			snd, rcv, *b.Sender.Stats(), b.Receiver.RcvNxt())
	}

	s.StopChurn()
	s.DetachFlow(b)
	s.Eng.RunFor(2 * time.Second)
	if g, r := s.SegCounters(); g != r {
		t.Errorf("segment pool imbalance after teardown: %d gets, %d releases", g, r)
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
	st := b.Sender.Snapshot(s.Eng.Now())
	return st, st.SendStall
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
	c := endpointConfig(&first.Sender)
	complete := c.OnComplete
	c.OnComplete = func(snd *tcp.Sender) {
		complete(snd)
		if snd != &first.Sender || second != nil {
			return
		}
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
	if second == nil || second == first {
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

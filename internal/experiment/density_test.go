package experiment

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"rsstcp/internal/cc"
	"rsstcp/internal/host"
	"rsstcp/internal/sim"
	"rsstcp/internal/stats"
	"rsstcp/internal/tcp"
	"rsstcp/internal/unit"
	"rsstcp/internal/web100"
)

// endpointConfig returns the connection config a tcp.Sender or tcp.Receiver
// holds (its unexported cfg pointer).
func endpointConfig(endpoint any) *tcp.Config {
	return (*tcp.Config)(reflect.ValueOf(endpoint).Elem().FieldByName("cfg").UnsafePointer())
}

// TestFlowBundleSizeClass pins what one connection costs to store, and the
// sharing that pays for it. Go rounds every allocation up to a size class
// (…, 896, 1024, 1152, 1280, 1408, 1536, 1792 B), so bytes saved in a flow
// only count once the flow crosses a class boundary. With a 128-B
// tcp.Config copied into both the sender and the receiver, and the RTO
// bounds into the estimator, the bundle was 1,496 B, in the 1,536-B class.
// Pointers to one config per scenario make it 1,232 B (1,280-B class), and
// packing the flags and 32-bit fields of Flow, Sender, Receiver, sim.Timer
// and cc.Reno into shared words 1,136 B (1,152-B class). A pointer to a
// shared spec instead of a 128-B copy in Flow, and timer hooks instead of
// bound callbacks, make it 944 B: the 1,024-B class. The flow's private NIC
// was a second object beside it (264 B, in the 288-B class); embedded, the
// bundle would be 1,208 B. Deleting the copies of what the flow holds anyway
// (five Web100 gauges, the estimator's has-sample flag, the Flow's
// controller pointer, birth time and detached flag), of what every flow of a
// scenario shares (the Reno config, the engine, flow table, flight recorder
// and completion hook, now on the shared configs), the receive-side
// counters no binary reads, and the NIC's spare waker array makes it
// 1,008 B: one object in the 1,024-B class where there were two of 1,024
// and 288 B. Web100's CurRwnd, a copy of the row's rwnd, went next: 1,000 B.
// The sender's window and sequence state then moved in from its 80-B row
// in a separate flow table (+80 B), paid for by the Flow holding its
// endpoints by value instead of through pointers into the bundle (−24 B),
// sim.Timer finding its wheel through the engine (−8 B on each of two
// timers), the stall hook moving onto the shared config (−8 B), the Flow's
// NIC becoming its sender's transmit path (−8 B) and the sender's maxSent
// becoming max(rtxHigh, sndNxt) (−8 B): 1,016 B. The last 8 B are not
// optional: the runtime prefixes an object with pointers that is larger
// than 512 B with an 8-B type header, so a 1,024-B Flow is a 1,032-B
// allocation in the 1,152-B class.
func TestFlowBundleSizeClass(t *testing.T) {
	t.Parallel()
	const sizeClass, mallocHeader = 1024, 8
	t.Logf("Flow %d B + %d-B header: head %d, tcp.Sender %d (sim.Timer %d, web100.Live %d), tcp.Receiver %d, cc.Reno %d, host.Interface %d",
		unsafe.Sizeof(Flow{}), mallocHeader, unsafe.Offsetof(Flow{}.Sender), unsafe.Sizeof(tcp.Sender{}), unsafe.Sizeof(sim.Timer{}),
		unsafe.Sizeof(web100.Live{}), unsafe.Sizeof(tcp.Receiver{}), unsafe.Sizeof(cc.Reno{}), unsafe.Sizeof(host.Interface{}))
	if got := unsafe.Sizeof(Flow{}) + mallocHeader; got > sizeClass {
		t.Errorf("Flow (endpoints, controller and NIC included) allocates %d B with its header, over the %d-B size class", got, sizeClass)
	}

	// Flows 0 and 1 differ only in what a shared spec clears (Bytes and
	// StartAt); flow 2 differs in MSS and flow 3 in its algorithm. The churn
	// flows share the template's spec, a NaN field notwithstanding.
	cfg := churnCfg()
	cfg.Flows = []FlowSpec{
		{Alg: AlgStandard},
		{Alg: AlgStandard, StartAt: time.Millisecond, Bytes: 1 << 20},
		{Alg: AlgStandard, MSS: 1000},
		{Alg: AlgRestricted},
	}
	cfg.Churn.Flow.SACK = true
	cfg.Churn.Flow.Gains.Kp = math.NaN() // read only by a restricted flow
	cfg.Churn.Arrivals = "poisson:400"
	cfg.Duration = 200 * time.Millisecond
	s, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(s.churn.live) < 2 {
		t.Fatalf("%d churn flows live, want at least 2", len(s.churn.live))
	}
	shared := func(label string, flows []*Flow) *tcp.Config {
		spec, c := flows[0].Spec, endpointConfig(&flows[0].Sender)
		for _, f := range flows {
			if f.Spec != spec {
				t.Errorf("%s: flow %d does not share flow %d's spec", label, f.ID, flows[0].ID)
			}
			if endpointConfig(&f.Sender) != c || endpointConfig(&f.Receiver) != c {
				t.Errorf("%s: flow %d's endpoints do not share flow %d's config", label, f.ID, flows[0].ID)
			}
		}
		return c
	}
	std := shared("same spec", s.Flows[:2])
	mss := shared("MSS 1000", s.Flows[2:3])
	rss := shared("restricted", s.Flows[3:])
	churn := shared("churn template", s.churn.live)
	if len(s.shared) != 4 || std == mss || std == rss || std == churn || mss == churn {
		t.Errorf("%d shared specs, want 4 with a config each", len(s.shared))
	}
	if mss.MSS != 1000 || !churn.SACK || std.MSS != tcp.DefaultConfig().MSS {
		t.Errorf("configs carry the wrong parameters: %+v, %+v, %+v", *std, *mss, *churn)
	}
	if f := s.Flows[1]; f.Bytes != 1<<20 || f.Spec.Bytes != 0 || f.Spec.StartAt != 0 {
		t.Errorf("flow 1 holds %d bytes and a shared spec of %d bytes from %v, want 1 MiB and a cleared spec",
			f.Bytes, f.Spec.Bytes, f.Spec.StartAt)
	}
}

// TestChurnTablesBoundedByPeakLive pins the density contract of FlowID
// recycling: after thousands of flow lifetimes under a small admission cap,
// the scenario's flow table and the store of parked flows are sized to the
// peak live population, not to the total churn.
func TestChurnTablesBoundedByPeakLive(t *testing.T) {
	t.Parallel()
	// ~80% offered load of short transfers: ≥10k lifetimes complete in 25s
	// while the admission cap keeps the live population (and therefore the
	// expected table sizes) small.
	const maxLive = 128
	cfg := churnCfg()
	cfg.Churn.Arrivals = "poisson:1500"
	cfg.Churn.Size = "exp:10k"
	cfg.Churn.MaxLive = maxLive
	cfg.RetainFlows = -1
	cfg.Duration = 25 * time.Second
	if testing.Short() {
		cfg.Duration = 4 * time.Second
	}
	s, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.FCT == nil {
		t.Fatal("no flows completed")
	}
	if !testing.Short() && res.FCT.Count < 10000 {
		t.Fatalf("only %d flows completed, want ≥ 10000 churns", res.FCT.Count)
	}
	// IDs 1..maxLive can be live at once and nextID sits one past the high
	// water, so the flow table holds at most maxLive+2 entries.
	if got := len(s.byID); got > maxLive+2 {
		t.Errorf("flow table grew to %d entries after %d churns, want ≤ %d",
			got, res.FCT.Count, maxLive+2)
	}
	// Every detach trims the store to the live population (or its floor).
	if got := len(s.park.flows); got > max(parkedFloor, maxLive) {
		t.Errorf("%d flows parked after %d churns, want ≤ %d", got, res.FCT.Count, max(parkedFloor, maxLive))
	}
}

// TestManyFlows10kConcurrentHeapGate is the CI density gate: one scenario
// holds ≥10k concurrently live flows on the wheel-backed timers, with heap
// bounded (< 256 MiB total, ≤ 1 300 B per flow and no growth with the
// flows' age) and a clean teardown — zero leaked calendar entries, balanced segment
// pool.
//
// Not Parallel: it reads global heap statistics.
func TestManyFlows10kConcurrentHeapGate(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-concurrent density gate is a CI job, not a -short test")
	}
	const wantLive = 10000
	cfg := churnCfg()
	// Transfers far larger than the bottleneck can drain keep the live
	// population pinned at the admission cap once the arrival ramp fills it.
	cfg.Churn.Arrivals = "poisson:4000"
	cfg.Churn.Size = "fixed:10M"
	cfg.Churn.MaxLive = wantLive
	cfg.TimerWheel = true
	cfg.RetainFlows = -1
	cfg.Duration = 6 * time.Second

	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	s, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	live := s.LiveFlows()
	if live < wantLive {
		t.Fatalf("only %d flows concurrently live, want ≥ %d", live, wantLive)
	}

	perFlowHeap := func() float64 {
		runtime.GC()
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		const heapBudget = 256 << 20
		if m1.HeapAlloc > heapBudget {
			t.Errorf("heap %d MiB with %d live flows, budget %d MiB",
				m1.HeapAlloc>>20, live, heapBudget>>20)
		}
		perFlow := float64(m1.HeapAlloc-m0.HeapAlloc) / float64(live)
		t.Logf("%v: %d live flows: heap %.1f MiB (%.0f B/flow), wheel stats %+v",
			s.Eng.Now(), live, float64(m1.HeapAlloc)/(1<<20), perFlow, s.wheel.Stats())
		return perFlow
	}
	// 1 197 B/flow measured: the flow with its NIC and window state, rings
	// and record lists sized for a one-to-two segment window. It read 1 286
	// while the window state was a row in a separate flow table, 1 604 while
	// the NIC was its own object and sent records 32 B, 1 864 before flows
	// shared their specs and dropped their bound callbacks. The bound
	// leaves about 8 %.
	perFlow := perFlowHeap()
	if perFlow > 1300 {
		t.Errorf("per-flow heap footprint %.0f B, want ≤ 1 300 B", perFlow)
	}
	// The footprint follows what the flows hold, not how long they have
	// lived: the same population at three times the age reads the same.
	s.Eng.RunUntil(sim.At(3 * cfg.Duration))
	if got := s.LiveFlows(); got != live {
		t.Fatalf("%d flows live at %v, want the same %d", got, s.Eng.Now(), live)
	}
	if later := perFlowHeap(); later > 1.1*perFlow {
		t.Errorf("per-flow footprint grew with age: %.0f B at %v, %.0f B at %v",
			perFlow, cfg.Duration, later, 3*cfg.Duration)
	}

	// Teardown at scale: detach every live flow, let in-flight segments
	// reach the cleared demux routes, and assert nothing leaked.
	s.StopChurn()
	for n := s.LiveFlows(); n > 0; n = s.LiveFlows() {
		s.DetachFlow(s.churn.live[n-1])
	}
	s.Eng.RunUntil(sim.At(3*cfg.Duration + 2*time.Second))
	if got := s.Eng.Leaked(); got != 0 {
		t.Errorf("%d calendar entries leaked after detaching %d flows", got, live)
	}
	gets, releases := s.SegCounters()
	if gets != releases {
		t.Errorf("segment pool imbalance after teardown: %d gets, %d releases", gets, releases)
	}
}

// TestChurnFCTSummaryMatchesRecords: the streaming digest must agree with
// the retained per-flow records it replaced — exactly for the counts, sums
// and exact-regime quantiles.
func TestChurnFCTSummaryMatchesRecords(t *testing.T) {
	t.Parallel()
	s, err := Build(churnCfg())
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.FCT == nil || len(res.Flows) == 0 {
		t.Fatal("churn run produced no completions")
	}
	f := res.FCT
	if f.Count != int64(len(res.Flows)) {
		t.Fatalf("digest count %d != %d records", f.Count, len(res.Flows))
	}
	fcts := make([]float64, len(res.Flows))
	var fctSum, sdSum float64
	var bytes, retrans int64
	for i, r := range res.Flows {
		fcts[i] = r.FCT().Seconds()
		fctSum += fcts[i]
		sdSum += r.Slowdown
		bytes += r.Bytes
		retrans += r.Retrans
	}
	if f.Bytes != bytes || f.Retrans != retrans {
		t.Errorf("digest bytes/retrans %d/%d, records say %d/%d", f.Bytes, f.Retrans, bytes, retrans)
	}
	if f.Mean != fctSum/float64(len(fcts)) {
		t.Errorf("digest mean %v != running mean %v", f.Mean, fctSum/float64(len(fcts)))
	}
	if f.SlowdownMean != sdSum/float64(len(fcts)) {
		t.Errorf("digest slowdown mean %v != %v", f.SlowdownMean, sdSum/float64(len(fcts)))
	}
	// In the exact regime (run completes well under 4096 flows) the digest
	// quantiles are bit-identical to batch Describe over the same values.
	want := stats.Describe(append([]float64(nil), fcts...))
	if f.Min != want.Min || f.Max != want.Max || f.P50 != want.P50 || f.P90 != want.P90 {
		t.Errorf("digest quantiles diverge from Describe:\n got min/max/p50/p90 = %v/%v/%v/%v\nwant %v/%v/%v/%v",
			f.Min, f.Max, f.P50, f.P90, want.Min, want.Max, want.P50, want.P90)
	}
	if f.P99 < f.P90 || f.P99 > f.Max {
		t.Errorf("p99 %v outside [p90 %v, max %v]", f.P99, f.P90, f.Max)
	}
	var classN [NumSizeClasses]int64
	for _, r := range res.Flows {
		classN[r.Class]++
	}
	for i := range classN {
		if f.Class[i].Count != classN[i] {
			t.Errorf("class %d count %d, records say %d", i, f.Class[i].Count, classN[i])
		}
	}
	if math.IsNaN(f.SlowdownMean) || math.IsNaN(f.P99) {
		t.Error("digest produced NaN figures")
	}
}

// TestRetainFlowsCap: a positive cap keeps exactly the first N records in
// completion order, a negative cap keeps none, and the digest is identical
// in every case — retention is presentation, not measurement.
func TestRetainFlowsCap(t *testing.T) {
	t.Parallel()
	full, err := Build(churnCfg())
	if err != nil {
		t.Fatal(err)
	}
	want := full.Run()

	capped := churnCfg()
	capped.RetainFlows = 10
	cs, err := Build(capped)
	if err != nil {
		t.Fatal(err)
	}
	got := cs.Run()
	if len(got.Flows) != 10 {
		t.Fatalf("RetainFlows=10 kept %d records", len(got.Flows))
	}
	for i := range got.Flows {
		if got.Flows[i] != want.Flows[i] {
			t.Errorf("capped record %d diverged: %+v vs %+v", i, got.Flows[i], want.Flows[i])
		}
	}
	if *got.FCT != *want.FCT {
		t.Errorf("digest changed under the record cap:\nfull:   %+v\ncapped: %+v", *want.FCT, *got.FCT)
	}

	none := churnCfg()
	none.RetainFlows = -1
	ns, err := Build(none)
	if err != nil {
		t.Fatal(err)
	}
	bare := ns.Run()
	if len(bare.Flows) != 0 {
		t.Fatalf("RetainFlows=-1 kept %d records", len(bare.Flows))
	}
	if bare.FCT == nil || *bare.FCT != *want.FCT {
		t.Errorf("digest absent or changed with records disabled")
	}
}

// TestTimerWheelMatchesHeapChurn is the scenario-level wheel contract: the
// same churn configuration produces identical results — record for record,
// digest for digest — whether the endpoint timers ride the wheel over the
// ladder or sit on the calendar heap itself.
func TestTimerWheelMatchesHeapChurn(t *testing.T) {
	t.Parallel()
	heapCfg := churnCfg()
	heapCfg.Churn.Size = "pareto:1.3:5k:5M" // heavy tail: RTOs and delacks fire
	wheelCfg := heapCfg
	churn := *heapCfg.Churn
	wheelCfg.Churn = &churn
	wheelCfg.TimerWheel = true

	hs := buildOnHeap(t, heapCfg)
	ws, err := Build(wheelCfg)
	if err != nil {
		t.Fatal(err)
	}
	resH, resW := hs.Run(), owned(ws.Run())
	sameChurnResult(t, "heap-vs-wheel", resH, resW)
	if (resH.FCT == nil) != (resW.FCT == nil) {
		t.Fatal("digest presence diverged between timer backends")
	}
	if resH.FCT != nil && *resH.FCT != *resW.FCT {
		t.Errorf("FCT digest diverged:\nheap:  %+v\nwheel: %+v", *resH.FCT, *resW.FCT)
	}
	if ws.wheel == nil || ws.wheel.Stats().Armed == 0 {
		t.Error("wheel run never placed a timer on the ring")
	}

	// The wheel scenario resets clean: a second replicate on the reused
	// context still matches.
	if err := ws.Reset(wheelCfg); err != nil {
		t.Fatal(err)
	}
	again := ws.Run()
	sameChurnResult(t, "wheel-reset", resW, again)
}

// manyFlowsCfg is bench/'s many_flows shape at n flows: arrivals at 2n/s fill
// the admission cap of n during the first second, and 10 MB transfers over
// 1 Gbps keep every one of them alive for the window that follows.
func manyFlowsCfg(n int, window time.Duration) Config {
	return Config{
		Path: PathConfig{Bottleneck: unit.Gbps, TxQueueLen: 1000},
		Churn: &ChurnSpec{
			Arrivals: fmt.Sprintf("poisson:%d", 2*n),
			Size:     "fixed:10M",
			MaxLive:  n,
			Flow:     FlowSpec{Alg: AlgStandard},
		},
		Duration:    manyFlowsRamp + window,
		Seed:        1,
		Traceless:   true,
		TimerWheel:  true,
		RetainFlows: -1,
	}
}

const manyFlowsRamp = time.Second

// manyFlowsWindow ramps a many_flows scenario and runs its window. It returns
// the scenario, the objects allocated per 1000 window events and the live
// heap per flow after the window.
func manyFlowsWindow(tb testing.TB, cfg Config) (s *Scenario, allocsPerKevent, bytesPerFlow float64) {
	tb.Helper()
	var before, ramped, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := Build(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	s.Eng.RunUntil(sim.At(manyFlowsRamp))
	events := s.Eng.Processed()
	runtime.ReadMemStats(&ramped)
	s.Eng.RunUntil(sim.At(cfg.Duration))
	runtime.ReadMemStats(&after)
	events = s.Eng.Processed() - events
	allocs := after.Mallocs - ramped.Mallocs
	if got, want := s.LiveFlows(), cfg.Churn.MaxLive; got != want {
		tb.Fatalf("%d flows live when the window closed, want %d", got, want)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	return s, float64(allocs) * 1000 / float64(events),
		float64(after.HeapAlloc-before.HeapAlloc) / float64(s.LiveFlows())
}

// TestManyFlowsWindowAllocBudget pins the steady-state allocation rate of a
// large live population (bench/'s many_flows at its -quick scale): once the
// ramp has given every flow its queue ring and record list, the window may
// only grow them for occupancy, never for age. 25.6 objects per 1000 events
// when FIFOs grew before they slid, 8.3 since.
//
// Not Parallel: it reads global allocator statistics.
func TestManyFlowsWindowAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("5k-flow allocation budget is a CI job, not a -short test")
	}
	s, allocs, perFlow := manyFlowsWindow(t, manyFlowsCfg(5000, 2*time.Second))
	t.Logf("%d live flows: %.1f allocs/kevent in the window, %.0f B/flow", s.LiveFlows(), allocs, perFlow)
	if allocs > 12 {
		t.Errorf("window allocates %.1f objects per 1000 events, budget 12", allocs)
	}
}

// BenchmarkManyFlowsWindow reports the many_flows shape at 5000 flows: the
// window's allocations per 1000 events and the heap per live flow after it.
func BenchmarkManyFlowsWindow(b *testing.B) {
	var allocs, perFlow float64
	for i := 0; i < b.N; i++ {
		cfg := manyFlowsCfg(5000, 2*time.Second)
		cfg.Seed = uint64(i + 1)
		_, a, p := manyFlowsWindow(b, cfg)
		allocs += a
		perFlow += p
	}
	b.ReportMetric(allocs/float64(b.N), "allocs/kevent")
	b.ReportMetric(perFlow/float64(b.N), "B/flow")
}

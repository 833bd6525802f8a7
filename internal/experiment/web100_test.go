package experiment

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rsstcp/internal/sim"
	"rsstcp/internal/web100"
)

var updateWeb100Gauges = flag.Bool("update-web100-gauges", false,
	"rewrite testdata/web100_gauges.json from this build's output")

// web100Instants runs a lossy SACK dumbbell (a standard and a restricted
// flow) and a churn population at 0.8 load, and calls visit at six instants
// of each for both static flows and for the first four live churn flows;
// key names the run, the instant and the flow's position.
func web100Instants(t *testing.T, visit func(key string, now sim.Time, f *Flow)) {
	t.Helper()
	lossy := Config{
		Path:      PaperPath(),
		Flows:     []FlowSpec{{Alg: AlgStandard, SACK: true}, {Alg: AlgRestricted, SACK: true}},
		Duration:  3 * time.Second,
		Seed:      11,
		Traceless: true,
	}
	lossy.Path.Loss = 0.01
	churn := Config{
		Path: PaperPath(),
		Churn: &ChurnSpec{
			Arrivals: "poisson:1",
			Load:     0.8,
			Size:     "pareto:1.2:4k:10M",
			Flow:     FlowSpec{Alg: AlgRestricted},
		},
		Duration:    3 * time.Second,
		Seed:        2,
		Traceless:   true,
		RetainFlows: -1,
	}
	for _, run := range []struct {
		name string
		cfg  Config
	}{{"lossy-sack", lossy}, {"churn", churn}} {
		s, err := Build(run.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range []time.Duration{0, 100 * time.Millisecond, 400 * time.Millisecond, time.Second, 2 * time.Second, 3 * time.Second} {
			s.Eng.RunUntil(sim.At(at))
			flows := s.Flows
			if run.cfg.Churn != nil {
				flows = s.churn.live[:min(4, len(s.churn.live))]
			}
			for i, f := range flows {
				visit(fmt.Sprintf("%s/%v/%d", run.name, at, i), s.Eng.Now(), f)
			}
		}
	}
}

// TestWeb100DerivedGauges: a snapshot derives SegsOut, CurCwnd, CurSsthresh,
// SmoothedRTT and CurRTO from the sender instead of keeping copies. At every
// instant of web100Instants they must read what the sender holds, and every
// field of the snapshot must equal the reference in
// testdata/web100_gauges.json, captured from the build that still kept the
// five gauges up to date on every change.
func TestWeb100DerivedGauges(t *testing.T) {
	t.Parallel()
	got := map[string]web100.Stats{}
	web100Instants(t, func(key string, now sim.Time, f *Flow) {
		st, snd := f.Sender.Snapshot(now), f.Sender
		got[key] = st
		if st.SegsOut != st.DataSegsOut || st.CurCwnd != snd.Cwnd() || st.CurSsthresh != snd.Ssthresh() ||
			st.SmoothedRTT != snd.SRTT() || st.CurRTO != snd.RTO() {
			t.Errorf("%s: snapshot reads SegsOut %d, cwnd %d, ssthresh %d, srtt %v, rto %v; sender holds %d, %d, %d, %v, %v",
				key, st.SegsOut, st.CurCwnd, st.CurSsthresh, st.SmoothedRTT, st.CurRTO,
				st.DataSegsOut, snd.Cwnd(), snd.Ssthresh(), snd.SRTT(), snd.RTO())
		}
	})
	churned := 0
	for key := range got {
		if strings.HasPrefix(key, "churn/") {
			churned++
		}
	}
	if churned < 8 {
		t.Fatalf("only %d churn snapshots — bad test premise", churned)
	}

	path := filepath.Join("testdata", "web100_gauges.json")
	if *updateWeb100Gauges {
		js, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	js, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]web100.Stats
	if err := json.Unmarshal(js, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d snapshots, reference has %d", len(got), len(want))
	}
	fields := reflect.TypeOf(web100.Stats{})
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: no snapshot", key)
			continue
		}
		gv, wv := reflect.ValueOf(g), reflect.ValueOf(w)
		for i := 0; i < fields.NumField(); i++ {
			if !fields.Field(i).IsExported() {
				continue // the reference holds what JSON carries
			}
			if gf, wf := gv.Field(i).Interface(), wv.Field(i).Interface(); gf != wf {
				t.Errorf("%s: %s = %v, reference %v", key, fields.Field(i).Name, gf, wf)
			}
		}
	}
}

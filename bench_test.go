// Benchmarks regenerating the paper's evaluation: F1, the tables of
// campaign.PaperSuite, T4's tuning session and the GridFTP workload. Each
// iteration performs the full simulated experiment and reports the figures
// the paper's tables would hold (throughput in Mbps, send-stall counts) as
// custom metrics.
//
//	go test -bench=. -benchmem
package rsstcp_test

import (
	"testing"
	"time"

	"rsstcp"
)

const paperDuration = 25 * time.Second

// BenchmarkFigure1 regenerates F1: the cumulative send-stall series for
// both schemes on the paper path (100 Mbps, 60 ms RTT, IFQ 100).
func BenchmarkFigure1(b *testing.B) {
	b.Run("standard", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fig, err := rsstcp.Figure1(rsstcp.PaperPath(), paperDuration, uint64(i+1))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(fig.Standard[len(fig.Standard)-1], "final-stalls")
		}
	})
	b.Run("restricted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fig, err := rsstcp.Figure1(rsstcp.PaperPath(), paperDuration, uint64(i+1))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(fig.Restricted[len(fig.Restricted)-1], "final-stalls")
		}
	})
}

// BenchmarkPaperSuite regenerates the paper's tables T1–T3 and T5–T8, one
// sub-benchmark per study: each iteration runs the study's plan through the
// campaign engine and reports its first cell's throughput.
func BenchmarkPaperSuite(b *testing.B) {
	for _, st := range rsstcp.PaperSuite(paperDuration) {
		b.Run(st.ID, func(b *testing.B) {
			var rep *rsstcp.Report
			for i := 0; i < b.N; i++ {
				var err error
				if rep, err = rsstcp.RunPlan(st.Plan, rsstcp.CampaignOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			thr, _ := rep.Cells[0].Metric("throughput_mbps")
			b.ReportMetric(thr.Mean, "Mbps")
		})
	}
}

// BenchmarkZNTune regenerates T4: the Ziegler-Nichols tuning session of
// paper §3 (gain sweep to sustained oscillation, then Kc/Tc extraction).
func BenchmarkZNTune(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := rsstcp.Tune(rsstcp.PaperPath(), 30*time.Second, rsstcp.RulePaper)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Critical.Kc, "Kc")
		b.ReportMetric(res.Critical.Tc.Seconds(), "Tc-sec")
	}
}

// BenchmarkParallelStreams measures the GridFTP-style shared-host workload
// (four streams, one IFQ) — the deployment the authors built the scheme
// for.
func BenchmarkParallelStreams(b *testing.B) {
	for _, alg := range []rsstcp.Algorithm{rsstcp.Standard, rsstcp.Restricted} {
		b.Run(string(alg), func(b *testing.B) {
			var agg float64
			var stalls int64
			for i := 0; i < b.N; i++ {
				flows := make([]rsstcp.Flow, 4)
				for j := range flows {
					flows[j] = rsstcp.Flow{Alg: alg, Host: 1, SetpointFraction: 0.8}
				}
				s, err := rsstcp.Build(rsstcp.Options{
					Path:     rsstcp.PaperPath(),
					Flows:    flows,
					Duration: paperDuration,
					Seed:     uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				s.Run()
				agg, stalls = 0, 0
				for j := 0; j < 4; j++ {
					r := s.ResultFor(j)
					agg += float64(r.Throughput) / 1e6
					stalls += r.Stalls
				}
			}
			b.ReportMetric(agg, "aggregate-Mbps")
			b.ReportMetric(float64(stalls), "stalls")
		})
	}
}

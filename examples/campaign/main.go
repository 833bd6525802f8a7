// Campaign example, in two acts. First the Grid shorthand: sweep restricted
// vs standard slow-start across a small bandwidth × RTT × txqueuelen grid
// with replicated lossy runs, executed on all cores. Then a Plan literal: a
// set-point sweep with fairness and ramp-time metric columns — a campaign the
// seven grid fields cannot express. Both are a Plan, run by RunPlan into the
// same Report.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"rsstcp"
)

func main() {
	grid := rsstcp.Grid{
		Bandwidths:  []rsstcp.Bandwidth{10 * rsstcp.Mbps, 100 * rsstcp.Mbps},
		RTTs:        []time.Duration{20 * time.Millisecond, 60 * time.Millisecond},
		TxQueueLens: []int{50, 100},
		LossRates:   []float64{0, 0.001},
		Algorithms:  []rsstcp.Algorithm{rsstcp.Standard, rsstcp.Restricted},
		Replicates:  3,
		Duration:    5 * time.Second,
	}
	fmt.Printf("sweeping %d cells × %d replicates on %d workers...\n",
		grid.Plan().Size(), grid.Replicates, rsstcp.DefaultCampaignWorkers())

	rep, err := rsstcp.RunPlan(grid.Plan(), rsstcp.CampaignOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if err := rep.Table().Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// The aggregate answers the paper's question at every grid point: how
	// much does restricting slow-start buy, and how stable is the answer
	// across replicates (the std column) once the path is lossy?
	fmt.Println()
	fmt.Println("Each row is one cell; throughput_mbps-std is the replicate-to-")
	fmt.Println("replicate spread introduced by seeded random loss.")

	// Act two: a plan literal composes axes the grid does not have — here
	// the RSS IFQ set point — and picks the metric columns, including Jain's
	// fairness over two concurrent flows and the time to 90% utilization.
	fmt.Println()
	rep, err = rsstcp.RunPlan(rsstcp.Plan{
		Axes: []rsstcp.Axis{
			rsstcp.NewAxis("rtt", "20ms", "60ms"),
			rsstcp.NewAxis("alg", rsstcp.Restricted),
			rsstcp.NewAxis("flows", 2),
			rsstcp.NewAxis("setpoint", 0.5, 0.9),
		},
		Metrics:  []rsstcp.Metric{rsstcp.MetricThroughput, rsstcp.MetricFairness, rsstcp.MetricTimeToUtil90},
		Duration: 5 * time.Second,
	}, rsstcp.CampaignOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if err := rep.Table().Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println("Same engine, open axes: adding a sweep dimension or a metric")
	fmt.Println("is one entry in the plan literal, not a campaign-engine edit.")
}

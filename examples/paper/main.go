// Paper reproduces the paper's evaluation on its Section 4 testbed (100 Mbps,
// 60 ms RTT, txqueuelen 100, 25 s transfers): the Figure 1 send-stall
// series, the restricted/standard throughput ratio, and the tables T1–T3 and
// T5–T8, each a campaign plan run through the one sweep engine. T4, the
// Ziegler-Nichols session, is cmd/rsstcp-tune.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"rsstcp"
)

func main() {
	const duration = 25 * time.Second
	fig, err := rsstcp.Figure1(rsstcp.PaperPath(), duration, 1)
	if err != nil {
		log.Fatal(err)
	}
	render(fig.Table())
	std, rss := float64(fig.StandardResult.Throughput), float64(fig.RestrictedResult.Throughput)
	fmt.Printf("restricted/standard: %.2f / %.2f Mbps = %.3fx (paper reports ~1.40x)\n\n",
		rss/1e6, std/1e6, rss/std)

	for _, st := range rsstcp.PaperSuite(duration) {
		rep, err := rsstcp.RunPlan(st.Plan, rsstcp.CampaignOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s: %s ==\n", st.ID, st.Title)
		render(rep.Table())
	}
}

func render(t *rsstcp.Table) {
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
}

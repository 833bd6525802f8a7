package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles applies the choosing-metrics guide's rule to two saved result
// sets, A the base and B the candidate: per workload and end-to-end metric it
// prints both medians and quartiles over the sets' runs, the ratio B/A, and
// one verdict. It returns 0 when nothing is worse, unresolved or different
// and the calibration kernel ran at the same speed for both sets.
//
//	same        B's median is within the metric's bound of A's
//	worse       B's median is worse than A's by more than the bound
//	better      B wins at least 9 of 10 run pairs and the medians differ by
//	            more than the distance between A's quartiles
//	unresolved  a set's spread is wider than the bound and the runs overlap,
//	            so the bound cannot be checked either way
//	DIFFERS     an exact (simulated) figure or a digest changed
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readSet(pathA)
	if err == nil {
		var b resultSet
		if b, err = readSet(pathB); err == nil {
			if compareSets(a, b, stdout) {
				return 0
			}
			return 1
		}
	}
	fmt.Fprintf(stderr, "bench: %v\n", err)
	return 2
}

func readSet(path string) (resultSet, error) {
	var s resultSet
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Runs) == 0 {
		return s, fmt.Errorf("%s: no runs", path)
	}
	return s, nil
}

func compareSets(a, b resultSet, w io.Writer) (clean bool) {
	clean = true
	fmt.Fprintf(w, "A: vcs=%s go=%s nproc=%d seed=%d  %s\n", a.Provenance.Revision, a.Provenance.GoVersion, a.Provenance.NumCPU, a.Provenance.Seed, a.Provenance.When)
	fmt.Fprintf(w, "B: vcs=%s go=%s nproc=%d seed=%d  %s\n", b.Provenance.Revision, b.Provenance.GoVersion, b.Provenance.NumCPU, b.Provenance.Seed, b.Provenance.When)

	byWorkload := func(s resultSet) (map[string][]runResult, []string) {
		m := map[string][]runResult{}
		var order []string
		for _, r := range s.Runs {
			if _, ok := m[r.Workload]; !ok {
				order = append(order, r.Workload)
			}
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m, order
	}
	ra, order := byWorkload(a)
	rb, _ := byWorkload(b)

	for _, name := range order {
		runsA, runsB := ra[name], rb[name]
		if len(runsB) == 0 {
			fmt.Fprintf(w, "\n%s: missing from B\n", name)
			clean = false
			continue
		}
		fmt.Fprintf(w, "\n%s  (A: %d runs, B: %d runs)\n", name, len(runsA), len(runsB))
		fmt.Fprintf(w, "  %-20s %-5s %12s %12s %12s | %12s %12s %12s | %8s  %s\n",
			"metric", "unit", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "B/A", "verdict")

		failed := func(rs []runResult) (att, fail int) {
			for _, r := range rs {
				att += r.Attempted
				fail += r.Failed
			}
			return
		}
		attA, failA := failed(runsA)
		attB, failB := failed(runsB)
		if failA+failB > 0 {
			clean = false
		}

		// Digests: the same seed must give the same simulated outcome.
		seen := map[uint64]digest{}
		for _, r := range runsA {
			seen[r.Seed] = r.Digest
		}
		for _, r := range runsB {
			if d, ok := seen[r.Seed]; ok && d != r.Digest {
				fmt.Fprintf(w, "  digest[seed %d] DIFFERS: A %v | B %v\n", r.Seed, d, r.Digest)
				clean = false
			}
		}

		for _, d := range endToEnd {
			va, vb := values(runsA, d.Name), values(runsB, d.Name)
			verdict := judge(d, va, vb)
			if verdict != "same" && verdict != "better" {
				clean = false
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			fmt.Fprintf(w, "  %-20s %-5s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g | %8.4f  %s\n",
				d.Name, d.Unit, a1, am, a3, b1, bm, b3, bm/am, verdict)
		}
		fmt.Fprintf(w, "  reps failed/attempted: A %d/%d, B %d/%d\n", failA, attA, failB, attB)

		// The yardstick, per workload: a sandbox can lose half its speed
		// for ten minutes, which is one workload's share of a set.
		ma, mb := median(calib(runsA)), median(calib(runsB))
		note := "machines agree"
		if mb > 1.05*ma || ma > 1.05*mb {
			note = "MACHINE SPEED DIFFERS by more than 5%: the host-time verdicts above compare machines, not code"
			clean = false
		}
		fmt.Fprintf(w, "  harness.calib_ns median: A %.3f, B %.3f, B/A %.4f  (%s)\n", ma, mb, mb/ma, note)
	}
	return clean
}

// calib lists every calibration reading of the runs, before and after.
func calib(runs []runResult) []float64 {
	xs := make([]float64, 0, 2*len(runs))
	for _, r := range runs {
		xs = append(xs, r.CalibNs[0], r.CalibNs[1])
	}
	return xs
}

func values(runs []runResult, metric string) []float64 {
	xs := make([]float64, 0, len(runs))
	for _, r := range runs {
		if v, ok := r.EndToEnd[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// judge gives the verdict for one metric; a is the base.
func judge(d metricDef, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "DIFFERS (missing)"
	}
	if d.Exact {
		for _, x := range append(append([]float64(nil), a...), b...) {
			if x != a[0] {
				return "DIFFERS"
			}
		}
		return "same"
	}
	// worseBy is how much worse y is than x, as a share of x.
	worseBy := func(x, y float64) float64 {
		if d.Better == "lower" {
			return (y - x) / x
		}
		return (x - y) / x
	}
	a1, am, a3 := quartiles(a)
	_, bm, _ := quartiles(b)
	if worseBy(am, bm) > d.Bound {
		return "worse"
	}
	// Every run of B better than every run of A resolves any spread.
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if worseBy(x, y) >= 0 {
				allBetter = false
			}
		}
	}
	if !allBetter && (iqrShare(a) > d.Bound || iqrShare(b) > d.Bound) {
		return "unresolved"
	}
	wins, pairs := 0, 0
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			pairs++
			if worseBy(a[i], b[i]) < 0 {
				wins++
			}
		}
	}
	gap := am - bm
	if gap < 0 {
		gap = -gap
	}
	if pairs >= 10 && wins*10 >= pairs*9 && gap > a3-a1 && worseBy(am, bm) < 0 {
		return "better"
	}
	return "same"
}

// Command bench is the repository's benchmark: five named workloads, nine
// end-to-end metrics and an outside-in per-layer cost account. See
// README.md in this directory for what each number means and why each
// workload exists; BENCHMARK.json at the repository root registers the
// same names with the driver.
//
//	go run ./bench -seed 1                      every workload, then the traced pass
//	go run ./bench -workload churn -trace 0     one workload, end-to-end metrics only
//	go run ./bench -runs 10 -out A.json         a result set for -compare
//	go run ./bench -compare A.json B.json       the guide's verdict on two sets
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// defaultSeconds is the repetition-loop budget of one run; BENCHMARK.json's
// run_seconds repeats it.
const defaultSeconds = 15

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process: the smoke test calls it directly.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wname   = fs.String("workload", "", "workload to run (default: all five)")
		seed    = fs.Uint64("seed", 1, "first seed; repetitions cycle through seed..seed+9 (hold-out: 1000)")
		seconds = fs.Float64("seconds", defaultSeconds, "time budget of one run's repetition loop")
		trace   = fs.Int("trace", 1, "1: add the traced pass and report per-layer metrics; 0: end-to-end only")
		runs    = fs.Int("runs", 1, "runs per workload, run k using seed+k")
		out     = fs.String("out", "", "append the runs to this result-set file (input of -compare)")
		outDir  = fs.String("outdir", filepath.Join("bench", "out"), "directory for trace.json and CPU profiles")
		quick   = fs.Bool("quick", false, "smoke mode: 1/10 simulated durations, 0.3 s passes, drivers at 1/10 work")
		compare = fs.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare wants two result-set files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: want -seconds > 0, -runs >= 1, -trace 0 or 1")
		return 2
	}
	todo := workloads
	if *wname != "" {
		w, ok := workloadByName(*wname)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *wname)
			return 2
		}
		todo = []workload{w}
	}

	// An existing -out file is extended, so that two commits can be
	// measured in alternation, one run at a time, into one set each.
	set := resultSet{Provenance: provenance(*seed, *seconds, *quick)}
	if *out != "" {
		if old, err := readSet(*out); err == nil {
			set.Runs = old.Runs
		} else if !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	printProvenance(stdout, set.Provenance)
	var tr *tracer // nil records nothing
	if *trace == 1 {
		tr = newTracer()
	}
	ok := true
	for _, w := range todo {
		for k := 0; k < *runs; k++ {
			rr, err := runWorkload(w, runOpts{
				Seed:    *seed + uint64(k),
				Seconds: *seconds,
				Quick:   *quick,
				OutDir:  *outDir,
			}, tr, stdout)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
				return 1
			}
			ok = ok && rr.Correct
			set.Runs = append(set.Runs, rr)
		}
	}
	if tr != nil {
		printSpans(stdout, tr)
		if err := tr.write(filepath.Join(*outDir, "trace.json")); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	// The contract's result line: the last run's, last on standard output.
	last := set.Runs[len(set.Runs)-1]
	if err := json.NewEncoder(stdout).Encode(last.contractLine(*trace == 1)); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !ok {
		fmt.Fprintln(stderr, "bench: output checks failed")
	}
	return 0
}

// provenanceInfo says what produced a result set.
type provenanceInfo struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Revision   string  `json:"vcs_revision"`
	Dirty      bool    `json:"vcs_dirty"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick,omitempty"`
	When       string  `json:"when"`
}

func provenance(seed uint64, seconds float64, quick bool) provenanceInfo {
	p := provenanceInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Revision:   "unknown",
		Seed:       seed,
		Seconds:    seconds,
		Quick:      quick,
		When:       time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	return p
}

func printProvenance(w io.Writer, p provenanceInfo) {
	dirty := ""
	if p.Dirty {
		dirty = "+dirty"
	}
	fmt.Fprintf(w, "# rsstcp bench  %s %s/%s  nproc=%d GOMAXPROCS=%d  vcs=%s%s\n",
		p.GoVersion, p.GOOS, p.GOARCH, p.NumCPU, p.GOMAXPROCS, p.Revision, dirty)
	fmt.Fprintf(w, "# seed=%d (reps cycle seed..seed+%d)  budget=%gs per run  quick=%v  %s\n",
		p.Seed, seedCycle-1, p.Seconds, p.Quick, p.When)
	fmt.Fprintln(w, "# closed loop, one client: each repetition starts when the previous one returns")
}

// metricValue is one reported metric: the median over the run's timed
// repetitions, with their quartiles and count.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// runResult is one run of one workload: what -out stores and -compare reads.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Digest    digest                 `json:"digest"`
	CalibNs   [2]float64             `json:"calib_ns"` // before, after
	Drifted   bool                   `json:"drifted"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
}

// resultSet is the -out file.
type resultSet struct {
	Provenance provenanceInfo `json:"provenance"`
	Runs       []runResult    `json:"runs"`
}

// contractLine is the driver's result object: with tracing off every
// end-to-end metric, with tracing on every per-layer metric.
func (r runResult) contractLine(traced bool) any {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := r.EndToEnd
	if traced {
		src = r.PerLayer
	}
	ms := make(map[string]mv, len(src))
	for k, v := range src {
		ms[k] = mv{v.Value, v.Unit}
	}
	return struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms}
}

// runWorkload makes one run: calibration, the paper-gain reference, the
// untraced pass that yields the end-to-end metrics, calibration again, and
// — when tr is not nil — the traced pass that yields the per-layer metrics.
func runWorkload(w workload, o runOpts, tr *tracer, stdout io.Writer) (runResult, error) {
	fmt.Fprintf(stdout, "\n== %s  seed=%d\n   %s\n", w.Name, o.Seed, w.Why)
	h := &harness{heap: newHeapReader()}
	rr := runResult{Workload: w.Name, Seed: o.Seed}

	rr.CalibNs[0] = calibrate(o.Quick)
	gainErr, err := paperGainErr(o.Seed, o.Quick)
	if err != nil {
		return rr, fmt.Errorf("paper-gain reference: %w", err)
	}
	budget := time.Duration(o.Seconds * float64(time.Second))
	if tr != nil {
		budget /= 2 // the traced pass and the layer drivers take the rest
	}
	pass := runPass(w, o, h, budget)
	rr.CalibNs[1] = calibrate(o.Quick)
	rr.Drifted = rr.CalibNs[1] > 1.05*rr.CalibNs[0] || rr.CalibNs[0] > 1.05*rr.CalibNs[1]

	rr.Attempted, rr.Failed, rr.Failures = pass.Attempted, pass.Failed, pass.Failures
	rr.Correct = pass.Failed == 0
	if len(pass.Reps) == 0 {
		return rr, fmt.Errorf("no repetition passed its checks: %s", strings.Join(pass.Failures, "; "))
	}
	rr.Digest = pass.First.Digest
	rr.EndToEnd = map[string]metricValue{}
	vals := endToEndValues(pass, gainErr)
	for _, d := range endToEnd {
		q1, med, q3 := quartiles(vals[d.Name])
		rr.EndToEnd[d.Name] = metricValue{Value: med, Unit: d.Unit, Q1: q1, Q3: q3, N: len(vals[d.Name])}
	}
	printMetrics(stdout, "end-to-end (tracing off)", endToEnd, rr.EndToEnd)
	fmt.Fprintf(stdout, "   reps: %d attempted, %d failed   digest[seed %d]: %v\n",
		rr.Attempted, rr.Failed, o.Seed, rr.Digest)
	drift := ""
	if rr.Drifted {
		drift = "   DRIFTED: machine speed moved >5% during this workload"
	}
	fmt.Fprintf(stdout, "   harness.calib_ns before=%.3f after=%.3f%s\n", rr.CalibNs[0], rr.CalibNs[1], drift)

	if tr != nil {
		pl, traced, err := tracedPass(w, o, h, pass, rr, tr, stdout)
		if err != nil {
			return rr, err
		}
		rr.PerLayer = pl
		rr.Attempted += traced.Attempted
		rr.Failed += traced.Failed
		rr.Failures = append(rr.Failures, traced.Failures...)
		rr.Correct = rr.Failed == 0
		printMetrics(stdout, "per-layer (traced pass, drivers, CPU profile)", perLayer, rr.PerLayer)
	}
	for _, f := range rr.Failures {
		fmt.Fprintf(stdout, "   FAILED %s\n", f)
	}
	return rr, nil
}

func printMetrics(w io.Writer, title string, defs []metricDef, vals map[string]metricValue) {
	fmt.Fprintf(w, "   -- %s\n", title)
	fmt.Fprintf(w, "   %-32s %16s %-6s %14s %14s %5s\n", "metric", "median", "unit", "q1", "q3", "n")
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "   %-32s %16.6g %-6s %14.6g %14.6g %5d\n", d.Name, v.Value, v.Unit, v.Q1, v.Q3, v.N)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"go/format"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// quickRun runs the harness in-process under -quick and returns its result
// set and standard output.
func quickRun(t *testing.T, args ...string) (resultSet, string) {
	t.Helper()
	dir := t.TempDir()
	out := filepath.Join(dir, "set.json")
	var stdout, stderr bytes.Buffer
	args = append([]string{"-quick", "-outdir", dir, "-out", out}, args...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v: exit %d\n%s", args, code, stderr.String())
	}
	set, err := readSet(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range set.Runs {
		if !r.Correct || r.Failed != 0 {
			t.Errorf("%s: %d of %d repetitions failed: %v", r.Workload, r.Failed, r.Attempted, r.Failures)
		}
	}
	return set, stdout.String()
}

// TestSmoke runs every workload with the traced pass under -quick and holds
// the output against BENCHMARK.json — every workload and metric named there
// is emitted with that unit, and nothing else is — then checks that the
// seed drives the simulation and nothing else does.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var reg benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&reg); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if reg.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, harness default is %d", reg.RunSeconds, defaultSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	set, stdout := quickRun(t, "-seed", "1")
	byName := map[string]runResult{}
	for _, r := range set.Runs {
		byName[r.Workload] = r
	}
	if len(reg.Workloads) != len(workloads) || len(byName) != len(workloads) {
		t.Fatalf("workloads: %d registered, %d defined, %d ran", len(reg.Workloads), len(workloads), len(byName))
	}
	for i, w := range reg.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, harness has %q", i, w.Name, workloads[i].Name)
		}
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
		r, ok := byName[w.Name]
		if !ok {
			t.Errorf("workload %s did not run", w.Name)
			continue
		}
		if len(r.EndToEnd) != len(reg.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics emitted, %d registered", w.Name, len(r.EndToEnd), len(reg.EndToEnd))
		}
		for j, m := range reg.EndToEnd {
			d := endToEnd[j]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
				t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, harness %+v", j, m, d)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("end_to_end name %q unit %q", m.Name, m.Unit)
			}
			v, ok := r.EndToEnd[m.Name]
			if !ok || v.Unit != m.Unit {
				t.Errorf("%s: %s emitted=%v with unit %q, registered unit %q", w.Name, m.Name, ok, v.Unit, m.Unit)
			}
			if v.Value == 0 {
				t.Errorf("%s: end-to-end metric %s reads 0", w.Name, m.Name)
			}
		}
		if len(r.PerLayer) != len(reg.PerLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, %d registered", w.Name, len(r.PerLayer), len(reg.PerLayer))
		}
		for j, m := range reg.PerLayer {
			d := perLayer[j]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("per_layer[%d]: BENCHMARK.json %+v, harness %+v", j, m, d)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("per_layer name %q unit %q", m.Name, m.Unit)
			}
			if v, ok := r.PerLayer[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("%s: %s emitted=%v with unit %q, registered unit %q", w.Name, m.Name, ok, v.Unit, m.Unit)
			}
		}
		var sum float64
		for _, l := range cpuShareLayers {
			sum += r.PerLayer["cpu_share."+l].Value
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s: cpu_share.* sums to %.4f", w.Name, sum)
		}
	}

	// The driver's result object: last line of standard output, exactly
	// these keys, every per-layer metric of the last run.
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var line struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	dec = json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("result line: %v\n%s", err, lines[len(lines)-1])
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || *line.Attempted < 1 {
		t.Errorf("result line lacks correct/attempted/failed: %s", lines[len(lines)-1])
	}
	if len(line.Metrics) != len(perLayer) {
		t.Errorf("result line holds %d metrics, want the %d per-layer ones", len(line.Metrics), len(perLayer))
	}

	// Same seed again: every exact figure repeats. Another seed: the
	// simulation differs. topo_mix has RED and loss draws, so it can tell.
	again, _ := quickRun(t, "-seed", "1", "-workload", "topo_mix")
	first, second := byName["topo_mix"], again.Runs[0]
	if first.Digest != second.Digest {
		t.Errorf("seed 1 twice: digest %v then %v", first.Digest, second.Digest)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !d.Exact {
			continue
		}
		a, b := first.EndToEnd[d.Name], second.EndToEnd[d.Name]
		if _, ok := first.PerLayer[d.Name]; ok {
			a, b = first.PerLayer[d.Name], second.PerLayer[d.Name]
		}
		if a.Value != b.Value {
			t.Errorf("seed 1 twice: %s = %v then %v", d.Name, a.Value, b.Value)
		}
	}
	other, _ := quickRun(t, "-seed", "2", "-workload", "topo_mix", "-trace", "0")
	if other.Runs[0].Digest.Events == first.Digest.Events {
		t.Errorf("seeds 1 and 2 both simulate %d events: the seed does not reach the simulator", first.Digest.Events)
	}
	if got := first.PerLayer["sim.events_per_rep"].Value; got != float64(first.Digest.Events) {
		t.Errorf("sim.events_per_rep = %v, digest says %d", got, first.Digest.Events)
	}
}

// TestCompareVerdicts holds a synthetic result set against itself, against
// a 1.5x slower copy and against a 2x faster one.
func TestCompareVerdicts(t *testing.T) {
	mk := func(scale float64) string {
		set := resultSet{}
		for k := 0; k < 10; k++ {
			r := runResult{Workload: "w", Seed: uint64(k), Correct: true, Attempted: 3,
				CalibNs: [2]float64{8, 8}, EndToEnd: map[string]metricValue{}}
			for _, d := range endToEnd {
				v := 100 + float64(k)
				if !d.Exact {
					if d.Better == "higher" {
						v /= scale
					} else {
						v *= scale
					}
				}
				r.EndToEnd[d.Name] = metricValue{Value: v, Unit: d.Unit}
			}
			set.Runs = append(set.Runs, r)
		}
		for i := range set.Runs { // exact metrics must not vary
			m := set.Runs[i].EndToEnd["paper_gain_err_pct"]
			m.Value = 10.9
			set.Runs[i].EndToEnd["paper_gain_err_pct"] = m
		}
		b, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "set.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, slower, faster := mk(1), mk(1.5), mk(0.5)
	var out, errOut bytes.Buffer
	if code := compareFiles(base, base, &out, &errOut); code != 0 {
		t.Errorf("a set against itself: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(base, slower, &out, &errOut); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 1.5x slower set: exit %d, want 1 and a 'worse' verdict\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(base, faster, &out, &errOut); code != 0 || !strings.Contains(out.String(), "better") {
		t.Errorf("a 2x faster set: exit %d, want 0 and a 'better' verdict\n%s", code, out.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, med, q3 := quartiles([]float64{46, 1, 22, 2, 29, 4, 37, 7, 11, 16})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
}

func TestLayerOf(t *testing.T) {
	for sym, want := range map[string]string{
		"rsstcp/internal/sim.(*Engine).run":                 "sim",
		"rsstcp/internal/netem.(*HopArena).Receive":         "netem",
		"rsstcp/internal/unit.Bandwidth.Serialization":      "other",
		"runtime.mallocgc":                                  "runtime",
		"internal/runtime/maps.(*Map).getWithKey":           "runtime",
		"runtime/internal/atomic.(*Uint32).Load":            "runtime",
		"strconv.AppendFloat":                               "other",
		"slices.SortFunc[go.shape.[]rsstcp/internal/sim.x]": "other",
		"rsstcp/bench/layers.hold.func1":                    "other",
		"main.(*harness).scenarioRep":                       "other",
	} {
		if got := layerOf(sym); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

// TestFormatAndVet keeps the directory gofmt- and vet-clean from inside
// tier-1, since the benchmark is not allowed to edit the CI file.
func TestFormatAndVet(t *testing.T) {
	files, _ := filepath.Glob("*.go")
	more, _ := filepath.Glob(filepath.Join("layers", "*.go"))
	for _, f := range append(files, more...) {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		want, err := format.Source(src)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !bytes.Equal(src, want) {
			t.Errorf("%s is not gofmt-clean", f)
		}
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool on PATH")
	}
	if out, err := exec.Command("go", "vet", ".", "./layers").CombinedOutput(); err != nil {
		t.Errorf("go vet: %v\n%s", err, out)
	}
}

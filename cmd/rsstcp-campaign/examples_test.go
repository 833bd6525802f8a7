package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var updateExamplesGolden = flag.Bool("update-examples-golden", false,
	"rewrite testdata/examples_golden.json from this build's output")

// documentedExamples are invocations the package comment does not show but
// the documentation and CI lean on: the default sweep through each exporter
// and on one worker (see workerInvariant), the -axis forms that drop or
// supersede default flag axes, the EXPERIMENTS.md recipes for AQM and for
// a grid of unequal cells, and the per-flow Web100 export of retained
// replicates on a lossless and a lossy SACK sweep.
var documentedExamples = []string{
	"-csv -",
	"-json -",
	"-workers 1",
	"-workers 1 -json -",
	"-axis matchup=standard+restricted",
	"-bw 100 -rtt 60ms -ifq 100 -alg standard,restricted -flows 2 -axis sack=true -axis aqm=droptail,red -metrics throughput_mbps,utilization,hop_drops_max -replicates 2",
	"-axis flows=1,2,3,4,12 -alg standard,restricted -replicates 4 -json skew3.json",
	"-web100 -bw 100 -rtt 60ms -ifq 100 -alg standard,restricted -json -",
	"-web100 -bw 100 -rtt 60ms -ifq 100 -loss 0.01 -axis sack=true -alg standard,restricted -flows 2 -json -",
}

// workerInvariant pairs each one-worker invocation with the same invocation
// on the default pool: the bytes must not depend on the worker count.
var workerInvariant = map[string]string{
	"-workers 1":         "",
	"-workers 1 -json -": "-json -",
}

// headerExamples returns the arguments of each example invocation in the
// package comment of main.go, joining lines continued with a backslash.
func headerExamples(t *testing.T) [][]string {
	t.Helper()
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	var out [][]string
	var cur []string
	more := false
	for _, line := range strings.Split(string(src), "\n") {
		text, ok := strings.CutPrefix(line, "//\t")
		if !ok {
			continue
		}
		if !more {
			args, ok := strings.CutPrefix(text+" ", "rsstcp-campaign ")
			if !ok {
				continue
			}
			text, cur = args, nil
		}
		text, more = strings.CutSuffix(strings.TrimSpace(text), `\`)
		if cur = append(cur, strings.Fields(text)...); !more {
			out = append(out, cur)
		}
	}
	if len(out) == 0 {
		t.Fatal("package comment has no example invocations")
	}
	return out
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestExamplesGolden runs every example of the package comment, and the
// documented invocations above, for 1 s of virtual time per replicate and
// checks the SHA-256 of its stdout, and of every file the examples write
// (-json, -csv), against testdata/examples_golden.json.
func TestExamplesGolden(t *testing.T) {
	golden, err := filepath.Abs("testdata/examples_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	examples := headerExamples(t)
	for _, args := range documentedExamples {
		examples = append(examples, strings.Fields(args))
	}
	bin := filepath.Join(t.TempDir(), "rsstcp-campaign")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dir := t.TempDir()
	t.Chdir(dir)

	got := map[string]string{}
	for _, args := range examples {
		out, err := exec.Command(bin, append(args, "-quiet", "-duration", "1s")...).Output()
		if err != nil {
			t.Fatalf("rsstcp-campaign %s: %v", strings.Join(args, " "), err)
		}
		got["stdout: "+strings.Join(args, " ")] = sha(out)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		got["file: "+f.Name()] = sha(b)
	}

	for one, pool := range workerInvariant {
		if got["stdout: "+one] != got["stdout: "+pool] {
			t.Errorf("stdout of %q differs from %q: the worker count changed the output", one, pool)
		}
	}

	if *updateExamplesGolden {
		js, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden holds %d outputs, the examples make %d", len(want), len(got))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: SHA-256 %s, golden %s", k, got[k], w)
		}
	}
}

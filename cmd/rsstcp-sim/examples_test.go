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

// headerExamples returns the arguments of each example invocation in the
// package comment of main.go.
func headerExamples(t *testing.T) [][]string {
	t.Helper()
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	var out [][]string
	for _, line := range strings.Split(string(src), "\n") {
		if args, ok := strings.CutPrefix(line, "//\trsstcp-sim "); ok {
			out = append(out, strings.Fields(args))
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

// buildSim builds this command into a temporary directory.
func buildSim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rsstcp-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestExamplesGolden runs every example of the package comment for 2 s of
// virtual time and checks the SHA-256 of its stdout, and of every file the
// examples write (-csv, -events), against testdata/examples_golden.json.
func TestExamplesGolden(t *testing.T) {
	golden, err := filepath.Abs("testdata/examples_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	examples := headerExamples(t)
	bin := buildSim(t)
	dir := t.TempDir()
	t.Chdir(dir)

	got := map[string]string{}
	for _, args := range examples {
		out, err := exec.Command(bin, append(args, "-duration", "2s")...).Output()
		if err != nil {
			t.Fatalf("rsstcp-sim %s: %v", strings.Join(args, " "), err)
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

	if *updateExamplesGolden {
		js, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
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

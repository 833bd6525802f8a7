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

// goldenArgs are the pinned invocations: the gain sweep alone, and the sweep
// with a validation transfer per derived gain set. A 3 s probe keeps both
// under a second.
var goldenArgs = [][]string{
	{"-probe", "3s", "-validate=false"},
	{"-probe", "3s"},
}

// TestExamplesGolden runs each pinned invocation and checks the SHA-256 of
// its stdout against testdata/examples_golden.json.
func TestExamplesGolden(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "rsstcp-tune")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	got := map[string]string{}
	for _, args := range goldenArgs {
		out, err := exec.Command(bin, args...).Output()
		if err != nil {
			t.Fatalf("rsstcp-tune %s: %v", strings.Join(args, " "), err)
		}
		sum := sha256.Sum256(out)
		got["stdout: "+strings.Join(args, " ")] = hex.EncodeToString(sum[:])
	}

	const golden = "testdata/examples_golden.json"
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
		t.Errorf("golden holds %d outputs, the invocations make %d", len(want), len(got))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: SHA-256 %s, golden %s", k, got[k], w)
		}
	}
}

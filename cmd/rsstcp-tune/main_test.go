package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rsstcp/internal/campaign"
)

// validToken is one in-domain value per axis flag.
var validToken = map[string]string{"bw": "100", "rtt": "60ms", "ifq": "100"}

// TestAxisFlagsAreStockAxes: every axis flag names a stock axis, and its help
// line comes from the axis declaration.
func TestAxisFlagsAreStockAxes(t *testing.T) {
	stock := campaign.StockAxisNames()
	for _, n := range axisFlags {
		if !slices.Contains(stock, n) {
			t.Errorf("-%s is not a stock axis", n)
		}
		if campaign.AxisHelp(n) == "" {
			t.Errorf("stock axis %q has no help line", n)
		}
	}
}

// TestAxisFlagOrderFollowsRules: with every axis flag set, the flag compiler
// stacks them in list order — so the list is a sub-sequence of the canonical
// order — and any two either compose or conflict; none fails the rule
// table's order check, which would reject an invocation only for where the
// compiler put the axis.
func TestAxisFlagOrderFollowsRules(t *testing.T) {
	var args []string
	for _, n := range axisFlags {
		args = append(args, "-"+n+"="+validToken[n])
	}
	fs := flag.NewFlagSet("rsstcp-tune", flag.ContinueOnError)
	axes := campaign.NewAxisFlags(fs, axisFlags, nil, false)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	compiled := axes.Axes()
	var names []string
	for _, a := range compiled {
		names = append(names, a.Name)
	}
	if !slices.Equal(names, axisFlags) {
		t.Fatalf("compiled axis order %v, want %v: the flag list is not a sub-sequence of the canonical order", names, axisFlags)
	}
	for i, a := range compiled {
		for _, b := range compiled[i+1:] {
			err := campaign.Plan{Axes: []campaign.Axis{a, b}}.Validate()
			if err != nil && !strings.Contains(err.Error(), "conflicts with") {
				t.Errorf("-%s then -%s: %v", a.Name, b.Name, err)
			}
		}
	}
}

// TestProfilesFlushedOnFailure: a run that fails after profiling started
// exits 1 and still leaves both profile files non-empty, because fatal
// stops the profiles before os.Exit skips main's deferred stop.
func TestProfilesFlushedOnFailure(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "rsstcp-tune")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	err := exec.Command(bin, "-bw", "-5", "-cpuprofile", cpu, "-memprofile", mem).Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("%v, want exit 1", err)
	}
	for _, f := range []string{cpu, mem} {
		fi, err := os.Stat(f)
		if err != nil {
			t.Errorf("%s not written: %v", filepath.Base(f), err)
		} else if fi.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(f))
		}
	}
}

// TestNegativeProbeFailsCleanly: a negative -probe is one line on stderr and
// exit 1, before the header. It used to start 30 s probes.
func TestNegativeProbeFailsCleanly(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "rsstcp-tune")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-bw", "10", "-probe", "-1s", "-validate=false")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Errorf("%v, want exit 1", err)
	}
	if msg := stderr.String(); strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "rsstcp-tune: ") {
		t.Errorf("stderr %q, want one rsstcp-tune line", msg)
	}
	if stdout.Len() > 0 {
		t.Errorf("printed %q before failing", stdout.String())
	}
}

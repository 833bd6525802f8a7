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
var validToken = map[string]string{
	"topo": "parking-lot", "load": "0.5", "arrivals": "poisson:10", "fsize": "exp:100k",
	"bw": "100", "rtt": "60ms", "rq": "250", "ifq": "100", "loss": "0",
	"alg": "standard", "flows": "1", "rev": "rate=5",
}

// TestAxisFlagsFollowCanonicalOrder: every axis flag but -hop and -rev names
// a stock axis, and with all of them set but -hop (whose chain is a "topo"
// axis, as -topo's value is) the flag compiler stacks them in list order —
// so the list is a sub-sequence of the canonical order — with -rev's "rbw"
// axis last, where any two either compose or conflict, and none fails the
// rule table's order check.
func TestAxisFlagsFollowCanonicalOrder(t *testing.T) {
	stock := campaign.StockAxisNames()
	var args, want []string
	for _, n := range axisFlags {
		switch {
		case n == "hop":
			continue
		case n == "rev":
			want = append(want, "rbw")
		case !slices.Contains(stock, n):
			t.Errorf("-%s is not a stock axis", n)
		default:
			want = append(want, n)
		}
		args = append(args, "-"+n, validToken[n])
	}
	fs := flag.NewFlagSet("rsstcp-campaign", flag.ContinueOnError)
	axes := campaign.NewAxisFlags(fs, axisFlags, nil, true)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	compiled := axes.Axes()
	var names []string
	for _, a := range compiled {
		names = append(names, a.Name)
	}
	if !slices.Equal(names, want) {
		t.Fatalf("compiled axis order %v, want %v: the flag list is not a sub-sequence of the canonical order", names, want)
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
// exits 1 and still leaves both profile files non-empty, because fatalf
// stops the profiles before os.Exit skips main's deferred stop.
func TestProfilesFlushedOnFailure(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "rsstcp-campaign")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	err := exec.Command(bin, "-axis", "setpoint=7", "-cpuprofile", cpu, "-memprofile", mem).Run()
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

// TestNegativeCountsFailCleanly: a negative -duration, -replicates or
// -workers is one line on stderr and exit 1, with no "runs on" line before
// it. Each used to run its default: 25 s per replicate, one replicate, the
// default pool.
func TestNegativeCountsFailCleanly(t *testing.T) {
	const cell = "-bw 10 -rtt 20ms -ifq 50 -alg standard -duration 100ms "
	failsCleanly(t, cell, "-duration -1s", "-replicates -3", "-workers -2", "-replicates -3 -workers -2")
}

// TestBadPathFlagsFailCleanly: a -hop or -rev value that does not parse or
// is out of its domain, a -hop chain whose delays sum past a duration's
// range (which used to run, its one-way delay wrapped negative), and a -rev
// delay whose round trip with -rtt's overflows, or a -load whose arrival
// rate over -fsize's mean is unusable (each refused by no flag alone: it
// used to print the "runs on" line and then fail in a worker) are one line
// on stderr and exit 1.
func TestBadPathFlagsFailCleanly(t *testing.T) {
	const hop = "-hop rate=100,delay=1000000h,queue=50 "
	failsCleanly(t, "-alg standard -duration 100ms ",
		"-hop rate=100,delay=10ms,queue=50,loss=NaN", "-hop rate=100,delay=10ms",
		"-rev rate=10,queue=-5", "-rev rate=Inf", "-hop rate=100,delay=10ms,queue=50 -rev delay=1ms",
		hop+hop+hop, "-hop rate=100,delay=10ms,queue=50 -topo parking-lot",
		"-rev rate=1,delay=2000000h -rtt 2000000h -bw 10 -ifq 50",
		"-load 0.5 -fsize pareto:1e300:1k:10M -bw 10 -rtt 20ms -ifq 50 -replicates 1")
}

// failsCleanly runs the command with each args after prefix and wants exit
// 1 with one line on stderr and nothing on stdout.
func failsCleanly(t *testing.T, prefix string, argss ...string) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rsstcp-campaign")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range argss {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, strings.Fields(prefix+args)...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s: %v, want exit 1", args, err)
		}
		if msg := stderr.String(); strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "rsstcp-campaign: ") {
			t.Errorf("%s: stderr %q, want one rsstcp-campaign line", args, msg)
		}
		if stdout.Len() > 0 {
			t.Errorf("%s: printed %q before failing", args, stdout.String())
		}
	}
}

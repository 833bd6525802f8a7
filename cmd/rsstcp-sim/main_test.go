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
	"bw": "100", "rtt": "60ms", "rq": "250", "ifq": "100", "nic": "200", "hops": "2",
	"aqm": "red", "alg": "standard", "setpoint": "0.9", "bytes": "1000000", "sack": "true",
	"rev": "rate=5",
}

// TestAxisFlagsAreStockAxes: every axis flag but -hop and -rev names a stock
// axis, and its help line comes from the axis declaration.
func TestAxisFlagsAreStockAxes(t *testing.T) {
	stock := campaign.StockAxisNames()
	for _, n := range axisFlags {
		if n == "hop" || n == "rev" {
			continue
		}
		if !slices.Contains(stock, n) {
			t.Errorf("-%s is not a stock axis", n)
		}
		if campaign.AxisHelp(n) == "" {
			t.Errorf("stock axis %q has no help line", n)
		}
	}
}

// TestAxisFlagOrderFollowsRules: with every axis flag set but -hop (whose
// chain is a "topo" axis, as -topo's value is), the flag compiler stacks them
// in list order — so the list is a sub-sequence of the canonical order — with
// -rev's "rbw" axis last, and any two either compose or conflict; none fails
// the rule table's order check, which would reject an invocation only for
// where the compiler put the axis.
func TestAxisFlagOrderFollowsRules(t *testing.T) {
	var args, want []string
	for _, n := range axisFlags {
		if n == "hop" {
			continue
		}
		args = append(args, "-"+n+"="+validToken[n])
		if n == "rev" {
			n = "rbw"
		}
		want = append(want, n)
	}
	fs := flag.NewFlagSet("rsstcp-sim", flag.ContinueOnError)
	axes := campaign.NewAxisFlags(fs, axisFlags, nil, false)
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

// TestOutOfDomainFlagsFailCleanly: a value outside its axis's domain, or a
// flag the rule table forbids beside another, is one line on stderr and exit
// 1 before anything runs. Where the line must say more, named says what: a
// refusal only two flags trigger together names the cell (it used to be
// Build's, without it), and -bytes under -maxflows names its axis.
func TestOutOfDomainFlagsFailCleanly(t *testing.T) {
	bin := buildSim(t)
	const (
		composed = "-rev rate=1,delay=2000000h -rtt 2000000h -bw 10 -ifq 50 -alg standard -duration 1ms"
		// A Pareto tail index of 1e300 has no usable mean.
		load = "-load 0.5 -fsize pareto:1e300:1k:10M -bw 10 -rtt 20ms -ifq 50 -alg standard -duration 100ms"
	)
	named := map[string]string{
		composed:                  "rsstcp-sim: campaign: cell bw=10Mbps/rtt=2000000h0m0s/ifq=50/alg=standard/rbw=1Mbps: ",
		load:                      "rsstcp-sim: campaign: cell load=0.5/fsize=pareto:1e300:1k:10M/bw=10Mbps/rtt=20ms/ifq=50/alg=standard: experiment: Churn.Load 0.5 ",
		"-maxflows 5 -bytes 1000": `rsstcp-sim: campaign: axis "bytes": `,
	}
	for _, args := range []string{
		"-bw -5", "-ifq -3", "-setpoint 7", "-topo parking-lot -bw 50", "-rtt 60",
		"-hops 0", "-hops 2000000000", "-alg bogus", "-topo bogus", "-load 0",
		"-topo parking-lot -hop rate=100,delay=10ms,queue=50", "-arrivals poisson:10 -bytes 1000",
		"-maxflows 5 -bytes 1000", "-arrivals poisson:1e10 -maxflows 10 -duration 1ms",
		"-duration -1s", "-load 0.5 -maxflows -4", "-retain -7",
		"-hop rate=100,delay=10ms,queue=50,loss=NaN", "-hop rate=100,delay=10ms", "-rev rate=10,queue=-5",
		"-rev rate=Inf", "-hop rate=100,delay=10ms,queue=50 -rev delay=1ms",
		// Delays that sum past a duration's range used to run, the one-way
		// delay printed wrapped negative.
		"-hop rate=100,delay=1000000h,queue=50 -hop rate=100,delay=1000000h,queue=50 -hop rate=100,delay=1000000h,queue=50",
		composed, load,
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, strings.Fields(args)...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s: %v, want exit 1", args, err)
		}
		if msg := stderr.String(); strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "rsstcp-sim: ") {
			t.Errorf("%s: stderr %q, want one rsstcp-sim line", args, msg)
		} else if want := named[args]; !strings.HasPrefix(msg, want) {
			t.Errorf("%s: stderr %q, want it to start %q", args, msg, want)
		}
		if stdout.Len() > 0 {
			t.Errorf("%s: printed %q before failing", args, stdout.String())
		}
	}
}

// TestProfilesFlushedOnFailure: a run that fails after profiling started
// exits 1 and still leaves both profile files non-empty, because fatal
// stops the profiles before os.Exit skips main's deferred stop.
func TestProfilesFlushedOnFailure(t *testing.T) {
	bin := buildSim(t)
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

// TestUnsampledRTTPrintsZero: a transfer whose every segment is lost takes
// no RTT sample, and its summary reads "min 0s", not a sentinel.
func TestUnsampledRTTPrintsZero(t *testing.T) {
	bin := buildSim(t)
	out, err := exec.Command(bin, "-hop", "rate=100,delay=10ms,queue=50,loss=1", "-duration", "2s").Output()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "rtt ") && !strings.Contains(line, " min 0s,") {
			t.Errorf("no RTT sample, yet the summary prints %q", line)
		}
	}
	if !bytes.Contains(out, []byte("\nrtt ")) {
		t.Fatalf("summary has no rtt line:\n%s", out)
	}
}

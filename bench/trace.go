package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// span is one call the harness made into a layer. Start and End are
// nanoseconds since the tracer was created; Parent indexes the enclosing
// span (-1 at the top), Rep is the repetition it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Rep    int    `json:"rep"`
}

// tracer keeps spans in memory; a nil tracer records nothing, which is how
// the untraced pass runs the same code. It allocates nothing before the
// first span, so the untraced passes that precede it carry none of it.
type tracer struct {
	t0    time.Time
	spans []span
	open  int // innermost open span, -1 when none
	rep   int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: -1}
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, Start: int64(time.Since(t.t0)), Parent: t.open, Rep: t.rep,
	})
	t.open = len(t.spans) - 1
	return t.open
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
	t.open = t.spans[i].Parent
}

// window marks the calling goroutine (and the goroutines it starts) as
// inside or outside a timed window, by a pprof label: the CPU-profile fold
// keeps only samples that carry it, so set-up, forced collections and
// output checks stay out of cpu_share.*.
func (t *tracer) window(on bool) {
	if t == nil {
		return
	}
	ctx := context.Background()
	if on {
		ctx = pprof.WithLabels(ctx, pprof.Labels("window", "timed"))
	}
	pprof.SetGoroutineLabels(ctx)
}

// spanTotals is one span name's aggregate: calls, total time, and self time
// (total minus the time covered by child spans).
type spanTotals struct {
	Calls       int
	Total, Self time.Duration
}

func (t *tracer) totals() map[string]*spanTotals {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*spanTotals{}
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanTotals{}
			out[s.Name] = st
		}
		st.Calls++
		st.Total += time.Duration(s.End - s.Start)
		st.Self += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Unit  string `json:"unit"`
		Spans []span `json:"spans"`
	}{"ns since trace start", t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// cpuProfile runs fn under a CPU profile written to path.
func cpuProfile(path string, fn func()) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	fn()
	pprof.StopCPUProfile()
	return f.Close()
}

// foldProfile attributes every CPU sample taken inside a timed window to
// the package of its leaf frame and returns each layer's share; the shares
// sum to 1 by construction. The fold is `go tool pprof -top`, whose flat
// column is exactly the leaf-frame attribution (inlined callees count as
// leaves).
func foldProfile(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-unit=ms",
		"-tagfocus=window=timed", path)
	// pprof writes nothing here, but it insists on a writable scratch
	// directory; keep it inside the benchmark's output directory.
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(path))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return foldTop(string(out))
}

// foldTop parses pprof -top text: after the header line starting with
// "flat", each row is "<flat>ms <flat%> <sum%> <cum>ms <cum%> <name>".
func foldTop(top string) (map[string]float64, error) {
	flat := map[string]float64{}
	var total float64
	inRows := false
	for _, line := range strings.Split(top, "\n") {
		f := strings.Fields(line)
		if !inRows {
			inRows = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %v", line, err)
		}
		flat[layerOf(strings.Join(f[5:], " "))] += ms
		total += ms
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profile holds no samples")
	}
	for k := range flat {
		flat[k] /= total
	}
	return flat, nil
}

// layerOf maps a symbol name such as "rsstcp/internal/sim.(*Engine).Step"
// to its layer: the repo's packages by their last path element, the Go
// runtime (GC, malloc, scheduler) as "runtime", everything else — the
// standard library a layer calls into, the harness itself — as "other".
func layerOf(sym string) string {
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i] // generic instantiation: the type arguments hold dots
	}
	pkg := sym
	slash := strings.LastIndexByte(sym, '/')
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		pkg = sym[:slash+1+dot]
	}
	if rest, ok := strings.CutPrefix(pkg, "rsstcp/internal/"); ok {
		for _, l := range cpuShareLayers {
			if rest == l {
				return l
			}
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

package telemetry

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric, safe for concurrent use.
// Campaign workers increment counters from many goroutines while the metrics
// endpoint reads them, so all access is atomic.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the OpenMetrics counter contract; Add does
// not enforce it — callers own the monotonicity of their own counters).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// metricKind distinguishes exposition types.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
)

type metric struct {
	name string
	help string
	kind metricKind
	ctr  *Counter       // kindCounter
	fn   func() float64 // kindGauge
}

// Registry holds named counters and gauges and renders them as OpenMetrics
// text. Registration order is preserved in the exposition (stable output for
// tests and diffs); registration is concurrency-safe but normally happens
// once at startup.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	byName  map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]int{}}
}

// Counter registers (or returns the existing) counter with the given name.
// The name must be a valid OpenMetrics metric name without the "_total"
// suffix — the exposition appends it.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.byName[name]; ok {
		return r.metrics[i].ctr
	}
	c := &Counter{}
	r.byName[name] = len(r.metrics)
	r.metrics = append(r.metrics, metric{name: name, help: help, kind: kindCounter, ctr: c})
	return c
}

// CounterVar registers an existing counter under the given name — the form
// used by components that own their counters as struct fields (e.g. campaign
// self-metrics) and expose them on a registry afterwards. Re-registering a
// name rebinds it to c.
func (r *Registry) CounterVar(name, help string, c *Counter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.byName[name]; ok {
		r.metrics[i].ctr = c
		return
	}
	r.byName[name] = len(r.metrics)
	r.metrics = append(r.metrics, metric{name: name, help: help, kind: kindCounter, ctr: c})
}

// Gauge registers a function-backed gauge: every exposition calls fn for the
// current value. Re-registering a name replaces its function (campaign
// re-runs in one process rebind their gauges to fresh state).
func (r *Registry) Gauge(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.byName[name]; ok {
		r.metrics[i].fn = fn
		return
	}
	r.byName[name] = len(r.metrics)
	r.metrics = append(r.metrics, metric{name: name, help: help, kind: kindGauge, fn: fn})
}

// snapshotLocked copies the metric table so rendering runs without the lock
// (gauge functions may themselves take locks).
func (r *Registry) snapshot() []metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]metric(nil), r.metrics...)
}

// WriteOpenMetrics renders the registry as OpenMetrics text exposition
// (the format Prometheus scrapes), terminated by "# EOF".
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	var b strings.Builder
	for _, m := range r.snapshot() {
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&b, "# TYPE %s counter\n", m.name)
			if m.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", m.name, m.help)
			}
			fmt.Fprintf(&b, "%s_total %d\n", m.name, m.ctr.Value())
		case kindGauge:
			fmt.Fprintf(&b, "# TYPE %s gauge\n", m.name)
			if m.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", m.name, m.help)
			}
			fmt.Fprintf(&b, "%s %s\n", m.name, formatFloat(m.fn()))
		}
	}
	b.WriteString("# EOF\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// formatFloat renders a gauge value: integral floats print without an
// exponent or trailing zeros so the exposition stays human-readable.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Snapshot returns the current values keyed by exposition name (counters
// under their "_total" name), for embedding into JSON reports. Keys sort
// deterministically at the JSON layer; values here are plain numbers.
func (r *Registry) Snapshot() map[string]float64 {
	out := map[string]float64{}
	for _, m := range r.snapshot() {
		switch m.kind {
		case kindCounter:
			out[m.name+"_total"] = float64(m.ctr.Value())
		case kindGauge:
			out[m.name] = m.fn()
		}
	}
	return out
}

// Handler returns an http.Handler serving the OpenMetrics exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		_ = r.WriteOpenMetrics(w)
	})
}

// Serve starts an HTTP server exposing the registry at /metrics (and at /)
// on addr. It returns the bound address (useful with ":0") and a close
// function; errors after startup are dropped — self-observation must never
// kill a campaign.
func (r *Registry) Serve(addr string) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.Handle("/", r.Handler())
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}

package telemetry

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestWriteOpenMetrics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("rsstcp_campaign_runs", "completed replicate runs")
	c.Add(42)
	reg.Gauge("rsstcp_campaign_reorder_depth", "pending out-of-order results", func() float64 { return 3 })

	var b strings.Builder
	if err := reg.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE rsstcp_campaign_runs counter\n",
		"# HELP rsstcp_campaign_runs completed replicate runs\n",
		"rsstcp_campaign_runs_total 42\n",
		"# TYPE rsstcp_campaign_reorder_depth gauge\n",
		"rsstcp_campaign_reorder_depth 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Errorf("exposition must end with # EOF:\n%s", out)
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x", "h")
	b := reg.Counter("x", "h")
	if a != b {
		t.Fatal("re-registering a counter must return the same instance")
	}
	reg.Gauge("g", "h", func() float64 { return 1 })
	reg.Gauge("g", "h", func() float64 { return 2 })
	snap := reg.Snapshot()
	if snap["g"] != 2 {
		t.Fatalf("gauge re-registration must rebind: got %v", snap["g"])
	}
}

func TestRegistrySnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("runs", "").Add(7)
	reg.Gauge("depth", "", func() float64 { return 1.5 })
	snap := reg.Snapshot()
	if snap["runs_total"] != 7 || snap["depth"] != 1.5 {
		t.Fatalf("snapshot wrong: %v", snap)
	}
}

func TestHandlerServesExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits", "").Inc()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Errorf("content type: %q", ct)
	}
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	if !strings.Contains(body, "hits_total 1") || !strings.Contains(body, "# EOF") {
		t.Errorf("body: %q", body)
	}
}

func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("n", "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	// Concurrent scrapes while incrementing (exercised under -race).
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			_ = reg.WriteOpenMetrics(&b)
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != 8000 {
		t.Fatalf("lost increments: %d", c.Value())
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up", "").Inc()
	addr, closeFn, err := reg.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

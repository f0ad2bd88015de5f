package experiment_test

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"qfarith/internal/experiment"
	"qfarith/internal/telemetry"
)

// scrapeMetrics fetches a Prometheus exposition page and sums sample
// values by family name (label sets and histogram le buckets collapse
// into one number per series name), which is all the monotonicity
// assertions below need.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain exposition format", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	sums := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparsable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad value in metrics line %q: %v", line, err)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		sums[name] += v
	}
	return sums
}

// TestTelemetryEndToEnd is the integration test of the whole pipeline:
// run a quick panel with the debug server up, scrape /metrics, and
// check the instrumented subsystems actually reported. Because the
// default registry is process-global and other tests in this package
// also drive sweeps, the assertions are presence and monotonicity
// only — never exact counts.
func TestTelemetryEndToEnd(t *testing.T) {
	srv, err := telemetry.Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	url := "http://" + srv.Addr() + "/metrics"

	pc := smallSweepPanel()
	if _, err := experiment.RunPanel(context.Background(), newTrajRunner(2), pc, experiment.PanelOptions{}); err != nil {
		t.Fatal(err)
	}
	first := scrapeMetrics(t, url)

	total := float64(len(pc.Rates) * len(pc.Depths))
	if got := first["qfarith_point_seconds_count"]; got < total {
		t.Errorf("point latency histogram count = %v, want >= %v", got, total)
	}
	if first["qfarith_point_seconds_sum"] <= 0 {
		t.Error("point latency histogram sum is zero — spans not recording")
	}
	for _, name := range []string{
		"qfarith_points_total",
		"qfarith_shots_total",
		"qfarith_trajectories_total",
		"qfarith_cache_events_total",
		"qfarith_scratch_states_total",
	} {
		if first[name] <= 0 {
			t.Errorf("%s = %v, want > 0 after a panel sweep", name, first[name])
		}
	}

	// A second panel on a fresh runner must strictly advance the
	// cumulative counters and the histogram count.
	if _, err := experiment.RunPanel(context.Background(), newTrajRunner(2), pc, experiment.PanelOptions{}); err != nil {
		t.Fatal(err)
	}
	second := scrapeMetrics(t, url)
	for _, name := range []string{
		"qfarith_point_seconds_count",
		"qfarith_points_total",
		"qfarith_shots_total",
		"qfarith_cache_events_total",
	} {
		if second[name] <= first[name] {
			t.Errorf("%s did not advance: %v -> %v", name, first[name], second[name])
		}
	}

	// /debug/vars must expose the same registry through expvar.
	resp, err := http.Get("http://" + srv.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	vars, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(vars), "qfarith_points_total") {
		t.Error("/debug/vars does not expose the qfarith snapshot")
	}
}

package server

import (
	"strconv"

	"qfarith/internal/telemetry"
)

// Telemetry handles for the daemon. Everything registers on the default
// registry so the shared debug mux (and the telemetry.json snapshot
// qfarithd writes into its data directory at drain) sees scheduler and
// simulation metrics side by side.
//
// Label values come from closed sets: priorities are the nine admission
// levels, outcomes the fixed lifecycle verbs, and HTTP routes the
// registered mux patterns.
var (
	metricRunning = telemetry.Default().Gauge("qfarithd_sched_running")
	// metricJobQueueSeconds: admission-to-dispatch wait per job.
	metricJobQueueSeconds = telemetry.Default().Histogram("qfarithd_job_queue_seconds")
	// metricJobRunSeconds: execution wall time per job attempt.
	metricJobRunSeconds = telemetry.Default().Histogram("qfarithd_job_run_seconds")
	// metricDrainSeconds: wall time of graceful drains (gauges are
	// integral in this registry, so sub-second drains need a histogram).
	metricDrainSeconds = telemetry.Default().Histogram("qfarithd_drain_seconds")
)

// queueDepthGauge is the admission-control gauge: one per priority
// level, holding the number of queued jobs at that priority. The
// scheduler's admission check is keyed off the same counts this gauge
// publishes, so the /metrics view and the 429 threshold can never
// disagree.
func queueDepthGauge(priority int) *telemetry.Gauge {
	return telemetry.Default().Gauge("qfarithd_sched_queue_depth",
		telemetry.L("priority", strconv.Itoa(priority)))
}

// jobsTotal counts lifecycle outcomes: submitted, rejected (admission),
// done, failed, cancelled, interrupted, retried.
func jobsTotal(outcome string) *telemetry.Counter {
	return telemetry.Default().Counter("qfarithd_jobs_total",
		telemetry.L("outcome", outcome))
}

// httpRequests counts API traffic by registered route pattern.
func httpRequests(route string) *telemetry.Counter {
	return telemetry.Default().Counter("qfarithd_http_requests_total",
		telemetry.L("route", route))
}

package main

import (
	"context"
	"time"

	"qfarith/internal/backend"
)

// timedBackend records a span around every Backend.Run. It is handed
// to backend.NewRunner (panels) or registered under the default name
// (daemon) in the traced phase only.
type timedBackend struct {
	backend.Backend
	tr *tracer
}

func (b *timedBackend) Run(ctx context.Context, spec backend.PointSpec) (backend.Distribution, backend.Diagnostics, error) {
	sp := b.tr.open("backend.run", 0, 0)
	defer sp.close()
	return b.Backend.Run(ctx, spec)
}

// layerMetrics derives the per-layer numbers a traced phase shares
// across workloads: spans recorded by this package plus the change in
// the program's own telemetry over the phase.
type layerMetrics struct {
	probe compileProbe
	spans []span
	delta telemSnap
	wall  time.Duration
}

// addCommon adds the compile, backend, noise, sim, metrics and
// experiment layer metrics.
func (l layerMetrics) addCommon(res *result) {
	d := l.delta
	res.add("compile.circuits", float64(l.probe.circuits), "count")
	res.add("compile.busy_s", l.probe.busy.Seconds(), "s")
	res.add("compile.native_ops", float64(l.probe.nativeOps), "count")
	res.add("compile.fused_segments", float64(l.probe.segments), "count")

	runs := durations(byName(l.spans, "backend.run"))
	runBusy := sum(runs)
	p50, _ := percentile(runs, 0.5)
	p90, ok := percentile(runs, 0.9)
	if !ok {
		res.fail("backend.run_p90_s rests on %d Backend.Run calls, fewer than %d lie beyond it", len(runs), minBeyond)
	}
	res.add("backend.run_calls", float64(len(runs)), "count")
	res.add("backend.run_busy_s", runBusy, "s")
	res.add("backend.run_p50_s", p50, "s")
	res.add("backend.run_p90_s", p90, "s")
	taskBusy := d.histSum("qfarith_runner_task_seconds")
	res.add("backend.pool_util", taskBusy/(workers*l.wall.Seconds()), "ratio")
	res.add("backend.engine_hit_ratio", ratio(
		d.counter("qfarith_cache_events_total", "cache", "engine", "result", "hit"),
		d.counter("qfarith_cache_events_total", "cache", "engine", "result", "miss")), "ratio")
	res.add("backend.transpile_hit_ratio", ratio(
		d.counter("qfarith_cache_events_total", "cache", "transpile", "result", "hit"),
		d.counter("qfarith_cache_events_total", "cache", "transpile", "result", "miss")), "ratio")

	res.add("noise.trajectories", d.counter("qfarith_trajectories_total"), "count")
	res.add("noise.error_events", d.counter("qfarith_error_events_total"), "count")
	res.add("noise.event_spans", d.counter("qfarith_error_event_spans_total"), "count")
	fill := 0.0
	if n := d.histCount("qfarith_mixture_batch_fill_ratio"); n > 0 {
		fill = d.histSum("qfarith_mixture_batch_fill_ratio") / float64(n)
	}
	res.add("noise.batch_fill_ratio", fill, "ratio")

	sample := d.histSum("qfarith_sample_seconds")
	score := d.histSum("qfarith_score_seconds")
	res.add("sim.shots", d.counter("qfarith_shots_total"), "count")
	res.add("sim.sample_s", sample, "s")
	res.add("sim.scratch_reuse_ratio", ratio(
		d.counter("qfarith_scratch_states_total", "result", "reuse"),
		d.counter("qfarith_scratch_states_total", "result", "alloc")), "ratio")
	res.add("metrics.score_s", score, "s")

	res.add("experiment.points", d.counter("qfarith_points_total", "kind", "fresh"), "count")
	res.add("experiment.instance_busy_s", taskBusy, "s")
	res.add("experiment.instance_self_s", taskBusy-runBusy-sample-score, "s")

	res.add("runstore.appends", d.counter("qfarith_checkpoint_appends_total"), "count")
	res.add("runstore.fsync_s", d.histSum("qfarith_checkpoint_fsync_seconds"), "s")
}

// serverMetrics are the daemon-only layer metrics; panel workloads
// never reach the server layer and report them as 0.
var serverMetrics = []string{"server.jobs", "server.submit_s", "server.queue_wait_s",
	"server.job_run_s", "server.job_self_s", "server.notify_s", "server.fetch_s", "server.http_requests"}

func addServerZeros(res *result) {
	for _, name := range serverMetrics {
		res.add(name, 0, unitOf(name))
	}
}

func unitOf(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

type metricDef struct{ name, unit string }

// endToEnd and perLayer name every metric BENCHMARK.json declares, in
// print order; a run that misses one is refused before printing.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"instances_per_s", "1/s"}, {"cpu_s_per_instance", "s"},
	{"peak_rss_mb", "MB"}, {"ok_frac", "ratio"}, {"job_p50_s", "s"}, {"job_p90_s", "s"},
}

var perLayer = []metricDef{
	{"compile.circuits", "count"}, {"compile.busy_s", "s"}, {"compile.native_ops", "count"}, {"compile.fused_segments", "count"},
	{"backend.run_calls", "count"}, {"backend.run_busy_s", "s"}, {"backend.run_p50_s", "s"}, {"backend.run_p90_s", "s"},
	{"backend.pool_util", "ratio"}, {"backend.engine_hit_ratio", "ratio"}, {"backend.transpile_hit_ratio", "ratio"},
	{"noise.trajectories", "count"}, {"noise.error_events", "count"}, {"noise.event_spans", "count"}, {"noise.batch_fill_ratio", "ratio"},
	{"sim.shots", "count"}, {"sim.sample_s", "s"}, {"sim.scratch_reuse_ratio", "ratio"}, {"metrics.score_s", "s"},
	{"experiment.points", "count"}, {"experiment.panel_s", "s"}, {"experiment.instance_busy_s", "s"}, {"experiment.instance_self_s", "s"},
	{"runstore.appends", "count"}, {"runstore.append_s", "s"}, {"runstore.fsync_s", "s"}, {"runstore.create_s", "s"}, {"runstore.artifact_s", "s"},
	{"server.jobs", "count"}, {"server.submit_s", "s"}, {"server.queue_wait_s", "s"}, {"server.job_run_s", "s"},
	{"server.job_self_s", "s"}, {"server.notify_s", "s"}, {"server.fetch_s", "s"}, {"server.http_requests", "count"},
	{"trace.overhead_frac", "ratio"},
}

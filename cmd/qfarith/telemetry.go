package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"qfarith/internal/experiment"
	"qfarith/internal/runstore"
	"qfarith/internal/telemetry"
)

// telemetryFlags adds -telemetry-addr to a command's flag set and
// manages the optional debug server plus the exit-time telemetry.json
// snapshot, so any sweep or study command can be observed live
// (curl host:port/metrics, go tool pprof host:port/debug/pprof/profile)
// without a rebuild.
type telemetryFlags struct {
	addr *string
}

// register installs the telemetry flags on fs.
func (tf *telemetryFlags) register(fs *flag.FlagSet) {
	tf.addr = fs.String("telemetry-addr", "",
		"serve /metrics, /debug/vars and /debug/pprof on this address (e.g. localhost:6060)")
}

// start launches the debug server when -telemetry-addr is set and
// returns the stop function to defer: it writes a telemetry.json
// snapshot into run's directory, announcing both on stdout (skipped when run is nil, i.e. no
// -rundir) and shuts the server down. Like profiler.start, the stop
// function is idempotent and also registered with onExit, so both the
// normal return path and an early exit() — SIGINT, sweep error —
// produce the snapshot. Exits with status 1 when the requested listen
// address is unusable, since silently running unobserved would defeat
// the flag.
func (tf *telemetryFlags) start(run *runstore.Run, stdout io.Writer) func() {
	var srv *telemetry.Server
	if *tf.addr != "" {
		s, err := telemetry.Serve(*tf.addr, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		srv = s
		fmt.Fprintf(stdout, "telemetry: http://%s/metrics\n", s.Addr())
	}
	var once sync.Once
	stop := func() {
		once.Do(func() {
			if run != nil {
				path := filepath.Join(run.Dir(), "telemetry.json")
				if err := telemetry.Default().WriteSnapshotFile(path); err != nil {
					fmt.Fprintln(os.Stderr, "telemetry snapshot:", err)
				} else {
					fmt.Fprintf(stdout, "telemetry snapshot: %s\n", path)
				}
			}
			if srv != nil {
				srv.Close()
			}
		})
	}
	onExit(stop)
	return stop
}

// telemetryShard publishes the shard identity as gauges, so the
// /metrics endpoints of a fleet of shard workers are distinguishable
// without scraping their command lines.
func telemetryShard(s experiment.Shard) {
	telemetry.Default().Gauge("qfarith_shard_index").Set(int64(s.Index))
	telemetry.Default().Gauge("qfarith_shard_count").Set(int64(s.Count))
}

// trackerInterval paces the periodic sweep progress line.
const trackerInterval = 15 * time.Second

// sweepTracker prints a periodic progress line for a multi-panel
// sweep: points completed (restored checkpoint cells counted
// separately), a fresh-only completion rate with its ETA, and the
// shots/sec throughput read from the telemetry counter. Restored cells
// complete in microseconds, so folding them into the rate would make a
// resumed sweep promise an absurdly near finish; only points actually
// computed in this process feed the rate and ETA.
type sweepTracker struct {
	start time.Time

	mu   sync.Mutex
	last experiment.SweepProgress

	lastShots   uint64
	lastShotsAt time.Time

	stopOnce sync.Once
	stopCh   chan struct{}
}

// newSweepTracker starts the progress ticker. Call observe from the
// sweep's progress callback and stop when the sweep finishes.
func newSweepTracker() *sweepTracker {
	t := &sweepTracker{
		start:       time.Now(),
		lastShots:   telemetry.Default().CounterSum("qfarith_shots_total"),
		lastShotsAt: time.Now(),
		stopCh:      make(chan struct{}),
	}
	go t.loop()
	return t
}

// observe records the sweep's latest counts. Safe for concurrent use.
func (t *sweepTracker) observe(sp experiment.SweepProgress) {
	t.mu.Lock()
	t.last = sp
	t.mu.Unlock()
}

// stop halts the ticker; idempotent.
func (t *sweepTracker) stop() {
	t.stopOnce.Do(func() { close(t.stopCh) })
}

func (t *sweepTracker) loop() {
	tick := time.NewTicker(trackerInterval)
	defer tick.Stop()
	for {
		select {
		case <-t.stopCh:
			return
		case <-tick.C:
			t.line()
		}
	}
}

// line renders one progress report. The shots/sec figure is the delta
// of the process-wide shots counter over the reporting interval, so it
// reflects current throughput rather than a lifetime average. The
// sample% figure is the shot-sampling stage's cumulative share of
// point wall time (qfarith_sample_seconds over qfarith_point_seconds),
// the number the constant-time sampling stage exists to keep small.
func (t *sweepTracker) line() {
	t.mu.Lock()
	done, fresh, restored, total := t.last.Done, t.last.Fresh, t.last.Restored, t.last.Total
	t.mu.Unlock()
	if done >= total {
		return
	}
	now := time.Now()
	shots := telemetry.Default().CounterSum("qfarith_shots_total")
	sps := float64(shots-t.lastShots) / now.Sub(t.lastShotsAt).Seconds()
	t.lastShots, t.lastShotsAt = shots, now

	line := fmt.Sprintf("progress: %d/%d points", done, total)
	if restored > 0 {
		line += fmt.Sprintf(" (%d restored)", restored)
	}
	if fresh > 0 {
		rate := float64(fresh) / now.Sub(t.start).Seconds()
		eta := time.Duration(float64(total-done) / rate * float64(time.Second))
		line += fmt.Sprintf(" | %.1f pts/min | ETA %s", rate*60, eta.Round(time.Second))
	}
	line += fmt.Sprintf(" | %.0f shots/s", sps)
	if pointSum := telemetry.Default().HistogramSum("qfarith_point_seconds"); pointSum > 0 {
		sampleSum := telemetry.Default().HistogramSum("qfarith_sample_seconds")
		line += fmt.Sprintf(" | sample %.1f%%", 100*sampleSum/pointSum)
		// The additional-scorer stage only accumulates when -scorers
		// requests metrics beyond the default margin path.
		if scoreSum := telemetry.Default().HistogramSum("qfarith_score_seconds"); scoreSum > 0 {
			line += fmt.Sprintf(" | score %.1f%%", 100*scoreSum/pointSum)
		}
	}
	fmt.Println(line)
}

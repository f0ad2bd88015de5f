// Command qfarithd is the job-scheduling simulation daemon: it serves
// the sweep experiments of arXiv:2112.09349 over an HTTP/JSON API
// instead of a one-shot CLI invocation.
//
//	qfarithd -addr localhost:8080 -data ./qfarithd-data
//
//	# submit a quick fig3 sweep
//	curl -s -X POST localhost:8080/api/v1/jobs \
//	  -d '{"command":"fig3","budget":"quick","seed":777}'
//	# follow progress until the stream closes
//	curl -sN localhost:8080/api/v1/jobs/job-000001/events
//	# fetch an artifact
//	curl -s localhost:8080/api/v1/jobs/job-000001/artifacts/fig3_2q_11.csv
//
// Jobs run through the same backend/experiment/runstore machinery as
// the qfarith CLI into ordinary run directories under -data, so a
// fixed-seed job's CSVs are byte-identical to the same sweep run via
// the CLI, and an interrupted job's directory resumes with `qfarith
// <command> ... -rundir DIR -resume`.
//
// SIGTERM/SIGINT triggers a graceful drain: queued jobs are cancelled,
// running jobs are interrupted after their checkpoint logs have
// absorbed every completed point, and the process exits 0 once the
// drain completes (non-zero if -drain-timeout expires first).
//
// The telemetry/debug surface (/metrics, /debug/vars, /debug/pprof/) is
// mounted on the API listener by default — one port, no conflict. Pass
// -telemetry-addr to bind it separately; passing the API address there
// is recognized and collapses back to the shared listener instead of
// failing to bind.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"qfarith/internal/backend"
	"qfarith/internal/server"
	"qfarith/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("qfarithd", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8080", "API listen address")
	data := fs.String("data", "qfarithd-data", "directory holding one run directory per job")
	backendName := fs.String("backend", backend.DefaultName, "execution backend for all jobs")
	workers := fs.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	jobs := fs.Int("jobs", 1, "jobs executing concurrently")
	maxQueue := fs.Int("max-queue", 64, "queued-job capacity; submissions beyond it get HTTP 429")
	maxRetries := fs.Int("max-retries", 2, "re-queues per job on transient failures (-1 disables)")
	drainTimeout := fs.Duration("drain-timeout", 60*time.Second, "grace period for the SIGTERM drain")
	telemetryAddr := fs.String("telemetry-addr", "",
		"separate debug/metrics listen address (empty or equal to -addr: share the API listener)")
	fs.Parse(args)

	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("qfarithd: ")

	cfg := server.Config{
		DataDir: *data, Backend: *backendName,
		Workers: *workers,
		Jobs:    *jobs, MaxQueue: *maxQueue, MaxRetries: *maxRetries,
	}
	shared := *telemetryAddr == "" || *telemetryAddr == *addr
	if shared {
		cfg.TelemetryMux = telemetry.NewMux(nil)
	}
	srv, err := server.New(cfg)
	if err != nil {
		log.Print(err)
		return 1
	}

	var debug *telemetry.Server
	if !shared {
		debug, err = telemetry.Serve(*telemetryAddr, nil)
		if err != nil {
			log.Print(err)
			return 1
		}
		defer debug.Close()
		log.Printf("telemetry on http://%s/metrics", debug.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Print(err)
		return 1
	}
	hs := &http.Server{Handler: srv, ReadHeaderTimeout: 5 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	// The parseable ready line scripts (and the daemon-e2e CI job) wait
	// for; everything else logs to stderr.
	fmt.Printf("qfarithd listening on %s (data %s, backend %s)\n", ln.Addr(), *data, *backendName)
	log.Printf("listening on %s", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		log.Printf("serve: %v", err)
		return 1
	case got := <-sig:
		log.Printf("received %s; draining (timeout %s)", got, *drainTimeout)
	}

	// Graceful drain: cancel queued jobs, interrupt running ones after
	// their checkpoints flush, then close the listener. Status/artifact
	// requests keep working until the very end so clients can watch the
	// drain conclude.
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("drain: %v", err)
		hs.Close()
		return 1
	}
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
		hs.Close()
	}
	log.Printf("drained in %s; run directories are resumable", time.Since(start).Round(time.Millisecond))
	return 0
}

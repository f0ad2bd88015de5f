package server

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"

	"qfarith/internal/backend"
	"qfarith/internal/compile"
	"qfarith/internal/experiment"
	"qfarith/internal/runstore"
)

// SweepExecutor runs jobs through the exact path the CLI uses:
// runstore.Open claims the job's run directory and
// experiment.RunSweep computes its panels against the checkpoint log
// and writes the CSVs. Nothing in the path knows it is running under a
// daemon, which is what makes an HTTP-submitted fixed-seed job
// byte-identical to the same sweep run from the command line — the
// invariant the daemon-e2e CI job checks.
type SweepExecutor struct {
	// Runner is the shared backend worker pool all jobs execute on.
	Runner *backend.Runner
	// DataDir holds one run directory per job, named by job ID.
	DataDir string
	// Backend is the backend name recorded in manifests (it must be the
	// name Runner was built from, as it is part of the config hash).
	Backend string
	// Workers bounds per-panel instance parallelism, like the CLI's
	// -workers; 0 = GOMAXPROCS.
	Workers int
	// GitDescribe is recorded in every job's manifest. server.New
	// resolves it once at startup, so it names the tree the daemon
	// started from and no job pays for a `git describe` subprocess.
	GitDescribe string
}

// Execute runs one attempt of j to completion, cancellation, or error.
// The job's run directory is created on the first attempt and resumed —
// hash-verified, checkpoints restored — on retries, so transient
// failures never recompute finished points. A ctx cancellation unwinds
// after the checkpoint log has absorbed every completed point
// (AppendPoint syncs before acknowledging), leaving a directory the CLI
// can resume.
func (e *SweepExecutor) Execute(ctx context.Context, j *Job) error {
	spec := j.sweep()
	if spec == nil {
		return fmt.Errorf("job %s is already %s", j.ID, j.State())
	}
	dir := filepath.Join(e.DataDir, j.ID)
	_, keys := spec.Panels(compile.Config{}, e.Workers)
	// A previous attempt that claimed the directory left its manifest:
	// resume it. Open re-verifies the config hash, so a stale directory
	// from an unrelated job is an error, not silent reuse.
	_, statErr := os.Stat(filepath.Join(dir, "manifest.json"))
	run, err := runstore.Open(dir, runstore.Manifest{
		Command: spec.Command, Seed: spec.Seed,
		Backend: e.Backend, Pipeline: compile.Config{}.Hash(),
		GitDescribe: e.GitDescribe,
	}, *spec, keys, statErr == nil)
	if err != nil {
		// A directory started under another config can never resume.
		if errors.Is(err, runstore.ErrConfigMismatch) {
			return err
		}
		// Otherwise run-directory claims and resumes fail on I/O hiccups
		// and leftover locks as readily as on real corruption; retrying
		// is cheap because nothing has been computed yet, unless the
		// error is one no retry can clear.
		return retryable(err)
	}
	j.setDir(dir)
	// No telemetry.json here: the registry is the daemon's, not the
	// job's, so qfarithd snapshots it once, into the data directory,
	// when it drains.
	defer run.Close()

	j.resetProgress(len(keys))
	_, err = experiment.RunSweep(ctx, e.Runner, *spec, experiment.SweepOptions{
		Workers: e.Workers, Run: run, Progress: j.observe,
	})
	if errors.Is(err, experiment.ErrArtifact) {
		return retryable(err)
	}
	return err
}

// permanentIO lists the storage errors no retry can clear: a full,
// over-quota or read-only file system, a failing device, a path
// component that is not a directory, and denied permissions.
var permanentIO = []error{
	syscall.ENOSPC, syscall.EDQUOT, syscall.EROFS, syscall.EIO,
	syscall.ENOTDIR, fs.ErrPermission,
}

// retryable marks a storage error transient unless it is one of
// permanentIO, which fail the job on its first attempt.
func retryable(err error) error {
	for _, p := range permanentIO {
		if errors.Is(err, p) {
			return err
		}
	}
	return MarkTransient(err)
}

package server

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"qfarith/internal/backend"
	"qfarith/internal/experiment"
	"qfarith/internal/runstore"
)

// testJob builds a queued job without going through HTTP.
func testJob(id, client string, priority int) *Job {
	return newJob(id, JobRequest{Client: client},
		experiment.SweepSpec{Command: "fig3"}, priority, time.Now())
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, j *Job, want JobState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s state = %s, want %s", j.ID, j.State(), want)
}

// TestSchedulerFairness drives a single worker with two competing
// clients and checks the dispatch interleaving: client b, though it
// submitted later, alternates with client a instead of waiting behind
// a's backlog.
func TestSchedulerFairness(t *testing.T) {
	started := make(chan string, 16)
	proceed := make(chan struct{})
	s := NewScheduler(1, 16, 0, func(ctx context.Context, j *Job) error {
		started <- j.ID
		select {
		case <-proceed:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	defer s.Drain(context.Background())

	a1 := testJob("a1", "alice", 5)
	if err := s.Submit(a1); err != nil {
		t.Fatal(err)
	}
	// Wait until a1 occupies the only worker so the rest of the
	// submissions land in the queue and are picked purely by policy.
	if got := <-started; got != "a1" {
		t.Fatalf("first dispatch %s, want a1", got)
	}
	for _, j := range []*Job{
		testJob("a2", "alice", 5), testJob("a3", "alice", 5), testJob("a4", "alice", 5),
		testJob("b1", "bob", 5), testJob("b2", "bob", 5),
	} {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}

	want := []string{"b1", "a2", "b2", "a3", "a4"}
	for _, w := range want {
		proceed <- struct{}{} // release the current job
		got := <-started
		if got != w {
			t.Fatalf("dispatch order: got %s, want %s", got, w)
		}
	}
	proceed <- struct{}{} // let the last job finish
}

// TestSchedulerPriority checks that priority dominates fairness and
// submission order.
func TestSchedulerPriority(t *testing.T) {
	started := make(chan string, 16)
	proceed := make(chan struct{})
	s := NewScheduler(1, 16, 0, func(ctx context.Context, j *Job) error {
		started <- j.ID
		select {
		case <-proceed:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	defer s.Drain(context.Background())

	if err := s.Submit(testJob("blocker", "alice", 5)); err != nil {
		t.Fatal(err)
	}
	<-started
	// Same client, later submission, higher priority: must jump ahead.
	if err := s.Submit(testJob("low", "alice", 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(testJob("high", "alice", 9)); err != nil {
		t.Fatal(err)
	}
	proceed <- struct{}{}
	if got := <-started; got != "high" {
		t.Fatalf("dispatched %s first, want high", got)
	}
	proceed <- struct{}{}
	if got := <-started; got != "low" {
		t.Fatalf("dispatched %s second, want low", got)
	}
	proceed <- struct{}{}
}

// TestSchedulerAdmissionControl fills the queue to capacity and checks
// the next submission is rejected with ErrQueueFull — and admitted
// again once the queue shrinks.
func TestSchedulerAdmissionControl(t *testing.T) {
	started := make(chan string, 16)
	proceed := make(chan struct{})
	s := NewScheduler(1, 2, 0, func(ctx context.Context, j *Job) error {
		started <- j.ID
		select {
		case <-proceed:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	defer s.Drain(context.Background())

	if err := s.Submit(testJob("running", "c", 5)); err != nil {
		t.Fatal(err)
	}
	<-started // occupies the worker; queue is now empty
	if err := s.Submit(testJob("q1", "c", 5)); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(testJob("q2", "c", 5)); err != nil {
		t.Fatal(err)
	}
	if got := s.QueueDepth(); got != 2 {
		t.Fatalf("queue depth = %d, want 2", got)
	}
	if err := s.Submit(testJob("q3", "c", 5)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit at capacity = %v, want ErrQueueFull", err)
	}
	// Drain one slot and admission opens again.
	proceed <- struct{}{}
	<-started
	if err := s.Submit(testJob("q3", "c", 5)); err != nil {
		t.Fatalf("Submit after dequeue = %v, want admitted", err)
	}
	proceed <- struct{}{}
	<-started
	proceed <- struct{}{}
	<-started
	proceed <- struct{}{}
}

// TestSchedulerRetryTransient checks the bounded-retry contract:
// transient failures re-queue up to MaxRetries and then run to
// completion; non-transient failures never retry.
func TestSchedulerRetryTransient(t *testing.T) {
	attempts := 0
	done := make(chan struct{})
	s := NewScheduler(1, 16, 2, func(ctx context.Context, j *Job) error {
		attempts++
		if attempts <= 2 {
			return MarkTransient(fmt.Errorf("flaky io %d", attempts))
		}
		close(done)
		return nil
	})
	defer s.Drain(context.Background())

	j := testJob("flaky", "c", 5)
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	<-done
	waitState(t, j, StateDone)
	if st := j.Status(); st.Retries != 2 {
		t.Errorf("retries = %d, want 2", st.Retries)
	}

	// Exhausted budget: transient failures beyond MaxRetries fail.
	attempts2 := 0
	s2 := NewScheduler(1, 16, 1, func(ctx context.Context, j *Job) error {
		attempts2++
		return MarkTransient(errors.New("always flaky"))
	})
	defer s2.Drain(context.Background())
	j2 := testJob("doomed", "c", 5)
	if err := s2.Submit(j2); err != nil {
		t.Fatal(err)
	}
	waitState(t, j2, StateFailed)
	if attempts2 != 2 {
		t.Errorf("attempts = %d, want 2 (initial + 1 retry)", attempts2)
	}

	// Non-transient errors never retry.
	attempts3 := 0
	s3 := NewScheduler(1, 16, 5, func(ctx context.Context, j *Job) error {
		attempts3++
		return errors.New("hard failure")
	})
	defer s3.Drain(context.Background())
	j3 := testJob("hard", "c", 5)
	if err := s3.Submit(j3); err != nil {
		t.Fatal(err)
	}
	waitState(t, j3, StateFailed)
	if attempts3 != 1 {
		t.Errorf("attempts = %d, want 1", attempts3)
	}
}

// TestSchedulerConfigMismatchIsPermanent: a job whose run directory
// holds a manifest written under another config hash can never resume,
// so it fails after exactly one attempt instead of burning its retries.
func TestSchedulerConfigMismatchIsPermanent(t *testing.T) {
	dataDir := t.TempDir()
	j := testJob("stale", "c", 5)
	run, err := runstore.Create(filepath.Join(dataDir, j.ID), runstore.Manifest{Command: "fig3", ConfigHash: "another-config"})
	if err != nil {
		t.Fatal(err)
	}
	run.Close()
	exec := &SweepExecutor{Runner: backend.NewRunner(backend.NewTrajectoryBackend(), 1), DataDir: dataDir, Backend: backend.DefaultName}

	attempts := 0
	var lastErr error
	s := NewScheduler(1, 16, 3, func(ctx context.Context, j *Job) error {
		attempts++
		lastErr = exec.Execute(ctx, j)
		return lastErr
	})
	defer s.Drain(context.Background())
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateFailed)
	if attempts != 1 {
		t.Errorf("attempts = %d, want 1 (a config mismatch is permanent)", attempts)
	}
	if !errors.Is(lastErr, runstore.ErrConfigMismatch) || IsTransient(lastErr) {
		t.Errorf("executor error = %v (transient %v), want a permanent runstore.ErrConfigMismatch", lastErr, IsTransient(lastErr))
	}
}

// TestSchedulerCancel covers both cancellation paths: a queued job
// finalizes immediately; a running job's context is cancelled and it
// finalizes as cancelled (not interrupted) once the executor unwinds.
func TestSchedulerCancel(t *testing.T) {
	started := make(chan string, 16)
	proceed := make(chan struct{})
	s := NewScheduler(1, 16, 0, func(ctx context.Context, j *Job) error {
		started <- j.ID
		select {
		case <-proceed:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	defer s.Drain(context.Background())

	running := testJob("running", "c", 5)
	queued := testJob("queued", "c", 5)
	if err := s.Submit(running); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := s.Submit(queued); err != nil {
		t.Fatal(err)
	}

	if !s.Cancel("queued") {
		t.Fatal("Cancel(queued) not found")
	}
	waitState(t, queued, StateCancelled)
	if got := s.QueueDepth(); got != 0 {
		t.Fatalf("queue depth after cancel = %d, want 0", got)
	}

	if !s.Cancel("running") {
		t.Fatal("Cancel(running) not found")
	}
	waitState(t, running, StateCancelled)

	if s.Cancel("running") {
		t.Error("Cancel on a terminal job reported found")
	}
	if s.Cancel("no-such-job") {
		t.Error("Cancel on an unknown job reported found")
	}
}

// TestSchedulerDrain checks the graceful-shutdown contract under -race:
// running jobs are interrupted via their contexts, queued jobs are
// cancelled, the drain blocks until workers exit, and later
// submissions are refused.
func TestSchedulerDrain(t *testing.T) {
	started := make(chan string, 16)
	s := NewScheduler(2, 16, 0, func(ctx context.Context, j *Job) error {
		started <- j.ID
		<-ctx.Done()
		return ctx.Err()
	})

	j1 := testJob("r1", "c", 5)
	j2 := testJob("r2", "c", 5)
	j3 := testJob("q1", "c", 5)
	for _, j := range []*Job{j1, j2, j3} {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	<-started // j1, j2 running on the two workers; j3 queued

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	waitState(t, j1, StateInterrupted)
	waitState(t, j2, StateInterrupted)
	waitState(t, j3, StateCancelled)

	if err := s.Submit(testJob("late", "c", 5)); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after drain = %v, want ErrDraining", err)
	}
	if err := s.Drain(ctx); err == nil {
		t.Error("second Drain succeeded, want error")
	}
}

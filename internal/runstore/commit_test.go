package runstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// withCommitLog swaps the checkpoint log's write-and-sync primitive for
// the length of a test.
func withCommitLog(t *testing.T, f func(*os.File, []byte) error) {
	t.Helper()
	real := commitLog
	commitLog = f
	t.Cleanup(func() { commitLog = real })
}

// batchKeys parses the keys out of a flush buffer.
func batchKeys(t *testing.T, buf []byte) []string {
	t.Helper()
	var keys []string
	for _, line := range bytes.Split(bytes.TrimSuffix(buf, []byte("\n")), []byte("\n")) {
		var rec pointRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Errorf("flush buffer holds a bad line %q: %v", line, err)
			continue
		}
		keys = append(keys, rec.Key)
	}
	return keys
}

// waitQueued blocks until n records wait in run's group commit queue.
func waitQueued(t *testing.T, run *Run, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		run.mu.Lock()
		got := len(run.queued)
		run.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d records queued, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupCommitAcknowledgesAfterSync: concurrent appenders share
// flushes, no record is visible to LookupPoint before the flush that
// covers it has synced, every acknowledged record is visible right
// after its append returns, and all of them are in points.jsonl after
// Close. Run under -race in CI's short suite.
func TestGroupCommitAcknowledgesAfterSync(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	run, err := Create(dir, Manifest{Command: "fig3", ConfigHash: "h"})
	if err != nil {
		t.Fatal(err)
	}
	real := commitLog
	var flushes, records int
	withCommitLog(t, func(f *os.File, buf []byte) error {
		keys := batchKeys(t, buf)
		for _, k := range keys {
			if _, ok := run.LookupPoint(k); ok {
				t.Errorf("point %s visible before its sync", k)
			}
		}
		flushes++
		records += len(keys)
		return real(f, buf)
	})
	const writers, perWriter = 8, 16
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%02d/p%02d", w, i)
				if err := run.AppendPoint(key, w*perWriter+i); err != nil {
					t.Errorf("append %s: %v", key, err)
					return
				}
				if _, ok := run.LookupPoint(key); !ok {
					t.Errorf("acknowledged point %s not visible", key)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	if records != writers*perWriter || flushes > records {
		t.Errorf("%d flushes carried %d records, want %d records", flushes, records, writers*perWriter)
	}
	t.Logf("%d records in %d flushes", records, flushes)
	points, _, err := loadPoints(filepath.Join(dir, pointsName))
	if err != nil || len(points) != writers*perWriter {
		t.Fatalf("reloaded %d points (err %v), want %d", len(points), err, writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if got := string(points[fmt.Sprintf("w%02d/p%02d", w, i)]); got != fmt.Sprint(w*perWriter+i) {
				t.Fatalf("record w%02d/p%02d reloaded as %q", w, i, got)
			}
		}
	}
}

// TestGroupCommitFailureIsSticky: a write or fsync failure fails every
// append of its batch and every later one, and nothing from the failed
// batch becomes visible. The first flush is held open until three more
// appenders have queued, so the failing flush carries all three.
func TestGroupCommitFailureIsSticky(t *testing.T) {
	for _, fault := range []string{"write", "fsync"} {
		t.Run(fault, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "run")
			run, err := Create(dir, Manifest{Command: "fig3", ConfigHash: "h"})
			if err != nil {
				t.Fatal(err)
			}
			injected := errors.New("injected " + fault + " fault")
			real := commitLog
			release := make(chan struct{})
			calls := 0
			withCommitLog(t, func(f *os.File, buf []byte) error {
				calls++
				switch calls {
				case 1:
					<-release
					return real(f, buf)
				case 2:
					if keys := batchKeys(t, buf); len(keys) != 3 {
						t.Errorf("second flush carried %v, want the three queued records", keys)
					}
					if fault == "fsync" {
						// The bytes reach the file; only their sync fails.
						if _, err := f.Write(buf); err != nil {
							return err
						}
					}
					return injected
				}
				t.Errorf("flush %d after a failed flush", calls)
				return nil
			})

			first := make(chan error, 1)
			go func() { first <- run.AppendPoint("a", 0) }()
			for !run.isFlushing() {
				time.Sleep(time.Millisecond)
			}
			batch := make(chan error, 3)
			for i := 1; i <= 3; i++ {
				go func(i int) { batch <- run.AppendPoint(fmt.Sprintf("b%d", i), i) }(i)
			}
			waitQueued(t, run, 3)
			close(release)
			if err := <-first; err != nil {
				t.Fatalf("first append: %v", err)
			}
			for i := 0; i < 3; i++ {
				if err := <-batch; !errors.Is(err, injected) {
					t.Errorf("batch append returned %v, want the injected fault", err)
				}
			}
			for _, k := range []string{"b1", "b2", "b3"} {
				if _, ok := run.LookupPoint(k); ok {
					t.Errorf("point %s of the failed batch is visible", k)
				}
			}
			if _, ok := run.LookupPoint("a"); !ok {
				t.Error("point a, synced before the failure, is not visible")
			}
			err = run.AppendPoint("c", 4)
			if !errors.Is(err, injected) || !strings.Contains(err.Error(), "failed earlier") {
				t.Errorf("append after the failure returned %v, want the sticky injected fault", err)
			}
			if calls != 2 {
				t.Errorf("%d flushes, want 2: nothing may be written after a failed flush", calls)
			}
			if err := run.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func (r *Run) isFlushing() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.flushing
}

// TestSequentialAppendsSyncEach: without contention every append is its
// own flush, so the fsync histogram gains one sample per record counted.
func TestSequentialAppendsSyncEach(t *testing.T) {
	run, err := Create(filepath.Join(t.TempDir(), "run"), Manifest{Command: "fig3", ConfigHash: "h"})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	appends0, syncs0 := ckptAppends.Value(), ckptFsyncSec.Count()
	const n = 7
	for i := 0; i < n; i++ {
		if err := run.AppendPoint(fmt.Sprintf("p%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	appends, syncs := ckptAppends.Value()-appends0, ckptFsyncSec.Count()-syncs0
	if appends != n || syncs != n {
		t.Errorf("%d sequential appends counted %d records and %d fsyncs, want %d of each", n, appends, syncs, n)
	}
}

// TestCloseWaitsForFlush: Close issued while a flush is in flight
// returns only after it, and the record it carried is acknowledged.
func TestCloseWaitsForFlush(t *testing.T) {
	run, err := Create(filepath.Join(t.TempDir(), "run"), Manifest{Command: "fig3", ConfigHash: "h"})
	if err != nil {
		t.Fatal(err)
	}
	real := commitLog
	release := make(chan struct{})
	withCommitLog(t, func(f *os.File, buf []byte) error {
		<-release
		return real(f, buf)
	})
	appended := make(chan error, 1)
	go func() { appended <- run.AppendPoint("a", 1) }()
	for !run.isFlushing() {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan error, 1)
	go func() { closed <- run.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v during a flush", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-appended; err != nil {
		t.Errorf("append: %v", err)
	}
	if err := <-closed; err != nil {
		t.Errorf("close: %v", err)
	}
	if err := run.AppendPoint("b", 2); err == nil {
		t.Error("append after Close succeeded")
	}
}

// TestResumeRepairsTailBeforeAppending: after a crash left the log's
// last record torn, or complete but without its newline, a resumed run
// appends on a fresh line, so the log stays resumable afterwards.
func TestResumeRepairsTailBeforeAppending(t *testing.T) {
	for name, tail := range map[string]string{
		"torn":    `{"key":"c","point":`,
		"unended": `{"key":"c","point":3}`,
	} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "run")
			run, err := Create(dir, Manifest{Command: "fig3", ConfigHash: "h"})
			if err != nil {
				t.Fatal(err)
			}
			if err := run.AppendPoint("a", 1); err != nil {
				t.Fatal(err)
			}
			run.Close()
			f, err := os.OpenFile(filepath.Join(dir, pointsName), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteString(tail)
			f.Close()

			resumed, err := Resume(dir, "h")
			if err != nil {
				t.Fatal(err)
			}
			if err := resumed.AppendPoint("d", 4); err != nil {
				t.Fatal(err)
			}
			resumed.Close()
			again, err := Resume(dir, "h")
			if err != nil {
				t.Fatalf("second resume: %v", err)
			}
			defer again.Close()
			want := map[string]bool{"a": true, "c": name == "unended", "d": true}
			for key, present := range want {
				if _, ok := again.LookupPoint(key); ok != present {
					t.Errorf("point %s present %v, want %v", key, ok, present)
				}
			}
		})
	}
}

package runstore_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"qfarith/internal/runstore"
)

func testManifest(hash string) runstore.Manifest {
	return runstore.Manifest{Command: "fig3", ConfigHash: hash, Seed: 42, Backend: "trajectory"}
}

func TestCreateResumeRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	run, err := runstore.Create(dir, testManifest("abc123"))
	if err != nil {
		t.Fatal(err)
	}
	type payload struct{ X, Y float64 }
	if err := run.AppendPoint("p/r00/d00", payload{1.5, 2.25}); err != nil {
		t.Fatal(err)
	}
	if err := run.AppendPoint("p/r00/d01", payload{3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}

	resumed, err := runstore.Resume(dir, "abc123")
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if got := resumed.Restored(); got != 2 {
		t.Errorf("Restored() = %d, want 2", got)
	}
	if m := resumed.Manifest(); m.Command != "fig3" || m.Seed != 42 {
		t.Errorf("manifest did not round-trip: %+v", m)
	}
	raw, ok := resumed.LookupPoint("p/r00/d00")
	if !ok {
		t.Fatal("checkpointed point missing after resume")
	}
	var p payload
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatal(err)
	}
	if p.X != 1.5 || p.Y != 2.25 {
		t.Errorf("payload = %+v, want {1.5 2.25}", p)
	}
	// Appending after resume extends, not truncates, the log.
	if err := resumed.AppendPoint("p/r01/d00", payload{5, 6}); err != nil {
		t.Fatal(err)
	}
	resumed.Close()
	again, err := runstore.Resume(dir, "abc123")
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if got := again.Restored(); got != 3 {
		t.Errorf("after second append, Restored() = %d, want 3", got)
	}
}

// TestCreateIntoMissingParents: Create makes every missing directory on
// the way and leaves both the manifest and the (empty) checkpoint log.
func TestCreateIntoMissingParents(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs", "job-000001")
	run, err := runstore.Create(dir, testManifest("h"))
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	for _, name := range []string{"manifest.json", "points.jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("Create left no %s: %v", name, err)
		}
	}
}

func TestResumeRejectsConfigHashMismatch(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	run, err := runstore.Create(dir, testManifest("hash-a"))
	if err != nil {
		t.Fatal(err)
	}
	run.Close()
	if _, err := runstore.Resume(dir, "hash-b"); err == nil {
		t.Fatal("Resume accepted a mismatched config hash")
	} else if !strings.Contains(err.Error(), "hash") {
		t.Errorf("error does not mention the hash: %v", err)
	}
	// Empty wantHash skips the check (tools that only read the log).
	if _, err := runstore.Resume(dir, ""); err != nil {
		t.Errorf("Resume with empty hash failed: %v", err)
	}
}

// TestOpen covers the one run-directory lifecycle sweeps share: a
// fresh Open creates the run with the spec's hash and both sidecars, a
// resume restores its checkpoints, and a resume under another shard or
// another spec is refused.
func TestOpen(t *testing.T) {
	type spec struct{ Seed int }
	dir := filepath.Join(t.TempDir(), "run")
	keys := []string{"p/r00/d00", "p/r00/d01"}
	m := runstore.Manifest{Command: "fig3", Seed: 7, Shard: "0/2"}
	run, err := runstore.Open(dir, m, spec{7}, keys, false)
	if err != nil {
		t.Fatal(err)
	}
	hash, _ := runstore.HashConfig(spec{7})
	if got := run.Manifest(); got.ConfigHash != hash || got.StartTime.IsZero() || got.Shard != "0/2" {
		t.Errorf("created manifest = %+v, want config hash %s, a start time and shard 0/2", got, hash)
	}
	if err := run.AppendPoint(keys[0], 1); err != nil {
		t.Fatal(err)
	}
	run.Close()
	var gotSpec spec
	if ok, err := runstore.ReadSpec(dir, &gotSpec); !ok || err != nil || gotSpec != (spec{7}) {
		t.Errorf("spec sidecar = %+v (ok %v, err %v), want {7}", gotSpec, ok, err)
	}
	if got, err := runstore.ReadExpectedKeys(dir); err != nil || !reflect.DeepEqual(got, keys) {
		t.Errorf("keys sidecar = %v (err %v), want %v", got, err, keys)
	}
	if _, err := runstore.Open(dir, m, spec{7}, keys, false); err == nil {
		t.Error("a second create of the same run directory succeeded")
	}

	resumed, err := runstore.Open(dir, m, spec{7}, keys, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.Restored(); got != 1 {
		t.Errorf("resumed run restored %d points, want 1", got)
	}
	resumed.Close()

	other := m
	other.Shard = "1/2"
	if _, err := runstore.Open(dir, other, spec{7}, keys, true); err == nil || !strings.Contains(err.Error(), "shard") {
		t.Errorf("resume as another shard: err = %v, want a shard refusal", err)
	}
	if _, err := runstore.Open(dir, m, spec{8}, keys, true); !errors.Is(err, runstore.ErrConfigMismatch) {
		t.Errorf("resume under another spec: err = %v, want ErrConfigMismatch", err)
	}
}

// TestOpenSidecarFailureReleasesClaim: when a sidecar cannot be
// written (here a directory squats on spec.json or keys.json), Open
// fails and leaves no manifest and no temp file, so a retry creates
// the run afresh instead of resuming one without its sidecars.
func TestOpenSidecarFailureReleasesClaim(t *testing.T) {
	for _, sidecar := range []string{"spec.json", "keys.json"} {
		dir := filepath.Join(t.TempDir(), "run")
		if err := os.MkdirAll(filepath.Join(dir, sidecar, "x"), 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := runstore.Open(dir, runstore.Manifest{Command: "fig3"}, 1, nil, false); err == nil {
			t.Fatalf("Open succeeded without writing %s", sidecar)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Name() == "manifest.json" || strings.Contains(e.Name(), ".tmp-") {
				t.Errorf("Open failing on %s left %s behind", sidecar, e.Name())
			}
		}
	}
}

func TestCreateRefusesExistingRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	run, err := runstore.Create(dir, testManifest("h"))
	if err != nil {
		t.Fatal(err)
	}
	run.Close()
	if _, err := runstore.Create(dir, testManifest("h")); err == nil {
		t.Fatal("Create overwrote an existing run directory")
	}
}

// TestCreateConcurrentExactlyOneWins is the TOCTOU regression: racing
// creators of the same run directory must resolve to exactly one
// winner — the Stat-then-write check let two initialize it — with
// every loser told to use Resume.
func TestCreateConcurrentExactlyOneWins(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	const racers = 16
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		mu    sync.Mutex
		wins  int
	)
	start.Add(1)
	for i := 0; i < racers; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			run, err := runstore.Create(dir, testManifest("race"))
			if err == nil {
				run.Close()
				mu.Lock()
				wins++
				mu.Unlock()
				return
			}
			if !strings.Contains(err.Error(), "use Resume") {
				t.Errorf("loser got %v, want the use-Resume refusal", err)
			}
		}()
	}
	start.Done()
	done.Wait()
	if wins != 1 {
		t.Fatalf("%d creators won the race, want exactly 1", wins)
	}
	// The surviving manifest must be intact and resumable.
	if _, err := runstore.Resume(dir, "race"); err != nil {
		t.Fatalf("winner's run directory is not resumable: %v", err)
	}
}

// TestRestoredDedupesDuplicateKeys is the over-count regression: a log
// holding re-appended records for the same key (the signature of a
// merged-then-resumed or doubly-appended run) collapses in the point
// map, and Restored must report distinct keys, not record lines.
func TestRestoredDedupesDuplicateKeys(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	run, err := runstore.Create(dir, testManifest("h"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []struct {
		key string
		val int
	}{{"a", 1}, {"b", 2}, {"a", 1}, {"a", 1}, {"c", 3}} {
		if err := run.AppendPoint(rec.key, rec.val); err != nil {
			t.Fatal(err)
		}
	}
	run.Close()
	resumed, err := runstore.Resume(dir, "h")
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if got := resumed.Restored(); got != 3 {
		t.Errorf("Restored() = %d, want 3 distinct keys (5 records appended)", got)
	}
}

// TestResumeRejectsCorruptionBeforeBlankTail is the torn-tail
// heuristic regression: a corrupt record followed only by blank lines
// was forgiven as a torn final append, but a torn append can never be
// followed by further bytes — this is real corruption and must refuse.
func TestResumeRejectsCorruptionBeforeBlankTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	run, err := runstore.Create(dir, testManifest("h"))
	if err != nil {
		t.Fatal(err)
	}
	run.Close()
	log := `{"key":"a","point":1}` + "\n" + `garbage` + "\n\n\n"
	if err := os.WriteFile(filepath.Join(dir, "points.jsonl"), []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runstore.Resume(dir, "h"); err == nil {
		t.Fatal("Resume forgave a corrupt record that was followed by blank lines")
	}
}

// TestAppendPointConcurrent hammers one log with concurrent appenders
// (the panel runner's completion pattern); every record must survive a
// reopen. Run under -race in CI's short suite.
func TestAppendPointConcurrent(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	run, err := runstore.Create(dir, testManifest("h"))
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%02d/p%02d", w, i)
				if err := run.AppendPoint(key, map[string]int{"w": w, "i": i}); err != nil {
					t.Errorf("append %s: %v", key, err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	resumed, err := runstore.Resume(dir, "h")
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if got := resumed.Restored(); got != writers*perWriter {
		t.Fatalf("Restored() = %d, want %d", got, writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if _, ok := resumed.LookupPoint(fmt.Sprintf("w%02d/p%02d", w, i)); !ok {
				t.Fatalf("record w%02d/p%02d lost", w, i)
			}
		}
	}
}

// TestResumeDropsTornTail: a crash mid-append leaves a final line
// without its record fully written; Resume must drop exactly that line
// and keep every acknowledged record.
func TestResumeDropsTornTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	run, err := runstore.Create(dir, testManifest("h"))
	if err != nil {
		t.Fatal(err)
	}
	if err := run.AppendPoint("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := run.AppendPoint("b", 2); err != nil {
		t.Fatal(err)
	}
	run.Close()
	logPath := filepath.Join(dir, "points.jsonl")
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"c","point":`) // torn: crash mid-write
	f.Close()

	resumed, err := runstore.Resume(dir, "h")
	if err != nil {
		t.Fatalf("Resume failed on torn tail: %v", err)
	}
	defer resumed.Close()
	if got := resumed.Restored(); got != 2 {
		t.Errorf("Restored() = %d, want 2 (torn tail dropped)", got)
	}
	if _, ok := resumed.LookupPoint("c"); ok {
		t.Error("torn record surfaced as a checkpoint")
	}
}

// TestResumeRejectsMidLogCorruption: a bad record that is NOT the final
// line means real corruption, not a torn append — refuse to resume.
func TestResumeRejectsMidLogCorruption(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	run, err := runstore.Create(dir, testManifest("h"))
	if err != nil {
		t.Fatal(err)
	}
	run.Close()
	log := `{"key":"a","point":1}` + "\n" + `garbage` + "\n" + `{"key":"b","point":2}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "points.jsonl"), []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runstore.Resume(dir, "h"); err == nil {
		t.Fatal("Resume accepted mid-log corruption")
	}
}

func TestHashConfigDiscriminates(t *testing.T) {
	type cfg struct {
		Seed  uint64
		Rates []float64
	}
	h1, err := runstore.HashConfig(cfg{1, []float64{0, 0.01}})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := runstore.HashConfig(cfg{1, []float64{0, 0.02}})
	if err != nil {
		t.Fatal(err)
	}
	h1b, err := runstore.HashConfig(cfg{1, []float64{0, 0.01}})
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Error("different configs hashed equal")
	}
	if h1 != h1b {
		t.Error("equal configs hashed different")
	}
}

func TestWriteReadArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "panel.csv")
	data := []byte("op,axis\nqfa,1q\n")
	if err := runstore.WriteArtifact(path, data); err != nil {
		t.Fatal(err)
	}
	got, err := runstore.ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Errorf("payload = %q, want %q", got, data)
	}
	raw, _ := os.ReadFile(path)
	if !strings.Contains(string(raw), "# sha256=") {
		t.Error("artifact lacks checksum footer")
	}
	// No temp files may remain next to the artifact.
	entries, _ := os.ReadDir(filepath.Dir(path))
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file left behind: %s", e.Name())
		}
	}
}

func TestVerifyArtifactDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.csv")
	if err := runstore.WriteArtifact(path, []byte("hello,world\n")); err != nil {
		t.Fatal(err)
	}
	if err := runstore.VerifyArtifact(path); err != nil {
		t.Fatalf("fresh artifact failed verification: %v", err)
	}
	raw, _ := os.ReadFile(path)
	raw[0] ^= 1
	os.WriteFile(path, raw, 0o644)
	if err := runstore.VerifyArtifact(path); err == nil {
		t.Fatal("corrupted artifact passed verification")
	}
	// Truncation (the partial-write signature) must also be caught.
	if err := os.WriteFile(path, []byte("hello,wo"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runstore.VerifyArtifact(path); err == nil {
		t.Fatal("truncated artifact passed verification")
	}
}

// TestWriteArtifactAtomicUnderConcurrentReads hammers one path with
// rewrites while readers verify: because writes go temp-then-rename, a
// reader must only ever observe a complete artifact whose checksum
// verifies — never a partial write at the final path.
func TestWriteArtifactAtomicUnderConcurrentReads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hot.csv")
	contents := [][]byte{
		[]byte(strings.Repeat("aaaa,bbbb,cccc\n", 200)),
		[]byte(strings.Repeat("dddd,eeee,ffff\n", 300)),
	}
	if err := runstore.WriteArtifact(path, contents[0]); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := runstore.WriteArtifact(path, contents[i%2]); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		data, err := runstore.ReadArtifact(path)
		if err != nil {
			t.Fatalf("read %d observed a partial artifact: %v", i, err)
		}
		if string(data) != string(contents[0]) && string(data) != string(contents[1]) {
			t.Fatalf("read %d observed mixed content (%d bytes)", i, len(data))
		}
	}
	close(stop)
	wg.Wait()
}

// TestGitDescribeResolvesOnce: GitDescribe runs git once per directory
// per process, so a second call answers even with git out of reach.
func TestGitDescribeResolvesOnce(t *testing.T) {
	git, err := exec.LookPath("git")
	if err != nil {
		t.Skip("git not installed")
	}
	dir := t.TempDir()
	for _, args := range [][]string{
		{"init", "-q"},
		{"-c", "user.name=t", "-c", "user.email=t@example.com", "commit", "-q", "--allow-empty", "-m", "init"},
	} {
		cmd := exec.Command(git, args...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Skipf("git %v: %v\n%s", args, err, out)
		}
	}
	first := runstore.GitDescribe(dir)
	if first == "" {
		t.Fatal("GitDescribe of a fresh repository is empty")
	}
	t.Setenv("PATH", "")
	if got := runstore.GitDescribe(dir); got != first {
		t.Errorf("second GitDescribe = %q, want the first call's %q", got, first)
	}
}

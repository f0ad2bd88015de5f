// Package runstore makes long sweeps durable. Every run owns a
// directory holding a JSON manifest (config hash, seeds, backend,
// git-describe, start time) and an append-only per-point checkpoint log
// (points.jsonl, one fsync'd record per completed point), so a killed
// or crashed sweep loses at most the points still in flight. A panel
// runs at most W = workers + 1 points at a time, so that is about W
// points' compute: the running points plus any whose record was still
// being written. A resumed run verifies the manifest's config hash,
// loads the log, and re-runs only the remainder; because point seeds
// are derived deterministically, the merged result is provably
// identical to an uninterrupted run.
//
// The package also owns artifact durability: WriteArtifact writes
// final outputs (CSVs, summaries, bench markdown) via
// write-temp-then-rename with a trailing checksum footer, so a partial
// artifact is never observable at its final path and silent truncation
// is detectable after the fact.
package runstore

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"qfarith/internal/telemetry"
)

// Checkpoint telemetry: how many points have been durably appended and
// the latency of the per-record fsync — the dominant cost of the
// append-before-acknowledge protocol on slow disks.
var (
	ckptAppends  = telemetry.Default().Counter("qfarith_checkpoint_appends_total")
	ckptFsyncSec = telemetry.Default().Histogram("qfarith_checkpoint_fsync_seconds")
)

const (
	manifestName = "manifest.json"
	pointsName   = "points.jsonl"
)

// Manifest records what a run directory was created for; Resume
// verifies ConfigHash against the caller's recomputed hash so a run
// can never silently continue under a different sweep configuration.
type Manifest struct {
	// Command is the CLI subcommand (or test harness) that owns the run.
	Command string `json:"command"`
	// ConfigHash is HashConfig over the full sweep specification
	// (geometry, axes, orders, rates, depths, budget, seed, backend) —
	// everything that determines point results, excluding scheduling
	// knobs like worker counts.
	ConfigHash string `json:"config_hash"`
	// Seed is the base RNG seed, duplicated out of the hash for
	// human inspection of the manifest.
	Seed uint64 `json:"seed"`
	// Backend names the execution backend.
	Backend string `json:"backend"`
	// Pipeline is the compile.Config hash of the run's compilation
	// pipeline, duplicated out of ConfigHash for human inspection (the
	// hash itself is what makes Resume refuse a pass-config change).
	Pipeline string `json:"pipeline,omitempty"`
	// GitDescribe pins the code version that started the run.
	GitDescribe string `json:"git_describe,omitempty"`
	// StartTime is when the run directory was created.
	StartTime time.Time `json:"start_time"`
	// Shard is "i/N" when this run owns only the grid points whose
	// checkpoint key hashes to i mod N; empty for an unsharded run.
	// MergeRuns clears it in the merged manifest. Shard is outside
	// ConfigHash: all shards of one sweep share the same hash, which is
	// exactly what lets MergeRuns verify they belong together.
	Shard string `json:"shard,omitempty"`
}

// Run is an open run directory: the manifest plus the checkpoint log,
// held open in append mode. Append/Lookup are safe for concurrent use
// (panel points complete concurrently).
type Run struct {
	dir      string
	manifest Manifest

	mu       sync.Mutex
	log      *os.File
	points   map[string]json.RawMessage
	restored int
}

// ErrConfigMismatch reports a run directory whose manifest was written
// under a different config hash. It is permanent: no retry can make the
// directory resumable under the current config.
var ErrConfigMismatch = errors.New("config hash mismatch")

// pointRecord is one line of points.jsonl.
type pointRecord struct {
	Key   string          `json:"key"`
	Point json.RawMessage `json:"point"`
}

// Create initializes a fresh run directory and writes its manifest.
// It refuses a directory that already holds a manifest — resuming an
// existing run must go through Resume so the config hash is checked.
// The manifest is created with O_EXCL semantics, so when several
// processes race to create the same run directory exactly one wins and
// the others get the "use Resume" error instead of both initializing it.
//
// Create returns only once the run is durable: the manifest, the empty
// checkpoint log, and the entry of every directory it had to create
// are fsynced, so a crash after the first acknowledged point cannot
// lose the log or the directory holding it.
func Create(dir string, m Manifest) (*Run, error) {
	created := missingDirs(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	mpath := filepath.Join(dir, manifestName)
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("runstore: marshal manifest: %w", err)
	}
	if err := writeFileExcl(mpath, append(data, '\n')); err != nil {
		if os.IsExist(err) {
			return nil, fmt.Errorf("runstore: %s already holds a run (use Resume)", dir)
		}
		return nil, fmt.Errorf("runstore: write manifest: %w", err)
	}
	log, err := os.OpenFile(filepath.Join(dir, pointsName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runstore: open checkpoint log: %w", err)
	}
	// One sync of dir covers both new entries; then each directory
	// MkdirAll created needs its own entry synced in its parent.
	syncs := []string{dir}
	for _, d := range created {
		syncs = append(syncs, filepath.Dir(d))
	}
	for _, d := range syncs {
		if err := syncDir(d); err != nil {
			log.Close()
			return nil, fmt.Errorf("runstore: create %s: %w", dir, err)
		}
	}
	return &Run{dir: dir, manifest: m, log: log, points: map[string]json.RawMessage{}}, nil
}

// missingDirs lists dir and each of its ancestors that does not exist
// yet, deepest first: the directories os.MkdirAll(dir) will create.
func missingDirs(dir string) []string {
	var missing []string
	for d := filepath.Clean(dir); ; d = filepath.Dir(d) {
		if _, err := os.Stat(d); !os.IsNotExist(err) {
			return missing
		}
		missing = append(missing, d)
		if filepath.Dir(d) == d {
			return missing
		}
	}
}

// Resume reopens an existing run directory, verifies its manifest's
// config hash against wantHash (skipped when wantHash is empty), and
// loads the checkpoint log. A torn final line — the signature of a
// crash mid-append — is dropped; any earlier corruption is an error,
// since fsync-per-record should make it impossible.
func Resume(dir, wantHash string) (*Run, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("runstore: %s is not a run directory: %w", dir, err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("runstore: corrupt manifest in %s: %w", dir, err)
	}
	if wantHash != "" && m.ConfigHash != wantHash {
		return nil, fmt.Errorf("runstore: %w: run %s was started with %s, current config hashes to %s (refusing to mix results)",
			ErrConfigMismatch, dir, m.ConfigHash, wantHash)
	}
	points, restored, err := loadPoints(filepath.Join(dir, pointsName))
	if err != nil {
		return nil, err
	}
	log, err := os.OpenFile(filepath.Join(dir, pointsName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runstore: open checkpoint log: %w", err)
	}
	return &Run{dir: dir, manifest: m, log: log, points: points, restored: restored}, nil
}

// Open is the one way a sweep claims its run directory. It hashes spec
// into m.ConfigHash, then either creates the run — manifest stamped
// with the current time, plus the spec.json and keys.json sidecars
// merge-runs reads; a failed sidecar write leaves no manifest behind —
// or, with resume, reopens it through Resume, which refuses a config
// mismatch, and refuses a run started as another shard than m.Shard.
// keys is the full grid's checkpoint-key list: every shard records the
// same list.
func Open(dir string, m Manifest, spec any, keys []string, resume bool) (*Run, error) {
	hash, err := HashConfig(spec)
	if err != nil {
		return nil, err
	}
	if resume {
		run, err := Resume(dir, hash)
		if err == nil && run.manifest.Shard != m.Shard {
			run.Close()
			return nil, fmt.Errorf("runstore: run %s was started as shard %q, current shard is %q (refusing to change the partition mid-run)",
				dir, run.manifest.Shard, m.Shard)
		}
		return run, err
	}
	m.ConfigHash, m.StartTime = hash, time.Now().UTC()
	run, err := Create(dir, m)
	if err != nil {
		return nil, err
	}
	if err = WriteSpec(dir, spec); err == nil {
		err = WriteExpectedKeys(dir, keys)
	}
	if err != nil {
		// Give up the claim, so a retry creates the run afresh instead
		// of resuming one without its sidecars.
		run.Close()
		os.Remove(filepath.Join(dir, manifestName))
		return nil, err
	}
	return run, nil
}

func loadPoints(path string) (map[string]json.RawMessage, int, error) {
	points := map[string]json.RawMessage{}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return points, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("runstore: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var pendingErr error
	badLine, lastLine := 0, 0
	for lineNo := 1; sc.Scan(); lineNo++ {
		lastLine = lineNo
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if pendingErr != nil {
			// The bad line was not the final one: real corruption.
			return nil, 0, pendingErr
		}
		var rec pointRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Key == "" {
			pendingErr = fmt.Errorf("runstore: corrupt checkpoint record at %s:%d", path, lineNo)
			badLine = lineNo
			continue
		}
		points[rec.Key] = rec.Point
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("runstore: read checkpoint log: %w", err)
	}
	// A torn append writes a prefix of one record and nothing after it,
	// so only a bad record on the literally last line of the file may be
	// forgiven. A bad record followed by anything — even blank lines —
	// means something was written after it: real corruption.
	if pendingErr != nil && badLine != lastLine {
		return nil, 0, pendingErr
	}
	// The restored count is the number of distinct keys, not records: a
	// log holding re-appended duplicates (e.g. after merging overlapping
	// shards) collapses in the map and must not over-report.
	return points, len(points), nil
}

// Dir returns the run directory path.
func (r *Run) Dir() string { return r.dir }

// Manifest returns the run's manifest.
func (r *Run) Manifest() Manifest { return r.manifest }

// Restored reports how many checkpointed points Resume loaded.
func (r *Run) Restored() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.restored
}

// LookupPoint returns the checkpointed payload for key, if present.
func (r *Run) LookupPoint(key string) (json.RawMessage, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	raw, ok := r.points[key]
	return raw, ok
}

// AppendPoint marshals payload, appends the record to points.jsonl and
// fsyncs it, so an acknowledged point survives any subsequent crash.
func (r *Run) AppendPoint(key string, payload any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("runstore: marshal point %q: %w", key, err)
	}
	line, err := json.Marshal(pointRecord{Key: key, Point: raw})
	if err != nil {
		return fmt.Errorf("runstore: marshal record %q: %w", key, err)
	}
	line = append(line, '\n')
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.log == nil {
		return fmt.Errorf("runstore: checkpoint log for %q is closed", key)
	}
	if _, err := r.log.Write(line); err != nil {
		return fmt.Errorf("runstore: append point %q: %w", key, err)
	}
	sp := telemetry.StartSpan(ckptFsyncSec)
	err = r.log.Sync()
	sp.End()
	if err != nil {
		return fmt.Errorf("runstore: fsync point %q: %w", key, err)
	}
	ckptAppends.Inc()
	r.points[key] = raw
	return nil
}

// Close flushes and closes the checkpoint log. Safe to call twice.
func (r *Run) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.log == nil {
		return nil
	}
	err := r.log.Close()
	r.log = nil
	return err
}

// HashConfig hashes an arbitrary configuration value into a short hex
// digest (SHA-256 over its canonical JSON): the manifest's ConfigHash.
func HashConfig(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("runstore: hash config: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:16]), nil
}

// GitDescribe returns `git describe --always --dirty` for dir, or ""
// when git or the repository is unavailable (manifests omit it then).
func GitDescribe(dir string) string {
	cmd := exec.Command("git", "describe", "--always", "--dirty")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// footerPrefix starts the checksum footer line appended to artifacts.
// The '#' makes the footer a comment to the repo's CSV/markdown readers.
const footerPrefix = "# sha256="

// WriteArtifact durably writes a final artifact: data plus a checksum
// footer land in a temp file in the same directory, which is fsync'd
// and renamed over path. Readers therefore observe either the previous
// complete artifact or the new complete artifact, never a partial one.
func WriteArtifact(path string, data []byte) error {
	buf := make([]byte, 0, len(data)+len(footerPrefix)+66)
	buf = append(buf, data...)
	if len(buf) > 0 && buf[len(buf)-1] != '\n' {
		buf = append(buf, '\n')
	}
	// The checksum covers the payload exactly as stored (including the
	// normalized trailing newline), so ReadArtifact can verify raw bytes.
	sum := sha256.Sum256(buf)
	buf = append(buf, footerPrefix...)
	buf = append(buf, hex.EncodeToString(sum[:])...)
	buf = append(buf, '\n')
	return writeFileAtomic(path, buf)
}

// ReadArtifact reads an artifact written by WriteArtifact, verifies the
// checksum footer, and returns the payload with the footer stripped.
func ReadArtifact(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	trimmed := bytes.TrimRight(raw, "\n")
	idx := bytes.LastIndexByte(trimmed, '\n')
	footer := trimmed[idx+1:]
	if !bytes.HasPrefix(footer, []byte(footerPrefix)) {
		return nil, fmt.Errorf("runstore: %s has no checksum footer", path)
	}
	data := raw[:idx+1]
	sum := sha256.Sum256(data)
	if got := string(footer[len(footerPrefix):]); got != hex.EncodeToString(sum[:]) {
		return nil, fmt.Errorf("runstore: %s checksum mismatch (truncated or corrupted artifact)", path)
	}
	return data, nil
}

// VerifyArtifact checks path's checksum footer without returning data.
func VerifyArtifact(path string) error {
	_, err := ReadArtifact(path)
	return err
}

// writeFileExcl creates path with O_EXCL — failing with os.IsExist
// when the file already exists, even against a concurrent creator —
// writes data and fsyncs it; the caller fsyncs the directory. Unlike
// writeFileAtomic, which rename-clobbers, this is the primitive for
// claims that must have exactly one winner (run-directory manifests).
func writeFileExcl(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}

// syncDir fsyncs directory dir, making the creates and renames in it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("sync directory: %w", err)
	}
	return nil
}

// Sidecar files a run directory may carry next to the manifest: the
// full sweep specification (so merge-runs can regenerate final CSVs
// without re-deriving the grid from CLI flags) and the expected
// checkpoint-key list (so merge-runs can report gaps against the full
// grid). Both are optional; readers return ok=false when absent.
const (
	specName = "spec.json"
	keysName = "keys.json"
)

// WriteSpec durably records the full sweep specification in dir.
func WriteSpec(dir string, spec any) error {
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return fmt.Errorf("runstore: marshal spec: %w", err)
	}
	return writeFileAtomic(filepath.Join(dir, specName), append(data, '\n'))
}

// ReadSpec unmarshals dir's sweep specification into spec. ok is false
// when the run directory has no spec sidecar (pre-shard runs).
func ReadSpec(dir string, spec any) (ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, specName))
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("runstore: %w", err)
	}
	if err := json.Unmarshal(data, spec); err != nil {
		return false, fmt.Errorf("runstore: corrupt spec in %s: %w", dir, err)
	}
	return true, nil
}

// WriteExpectedKeys durably records the full grid's checkpoint keys in
// dir. Every shard of a sweep writes the same full list — ownership is
// a filter over it, not a different grid.
func WriteExpectedKeys(dir string, keys []string) error {
	data, err := json.MarshalIndent(keys, "", "  ")
	if err != nil {
		return fmt.Errorf("runstore: marshal keys: %w", err)
	}
	return writeFileAtomic(filepath.Join(dir, keysName), append(data, '\n'))
}

// ReadExpectedKeys returns dir's expected checkpoint-key list, or
// (nil, nil) when the sidecar is absent.
func ReadExpectedKeys(dir string) ([]string, error) {
	data, err := os.ReadFile(filepath.Join(dir, keysName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	var keys []string
	if err := json.Unmarshal(data, &keys); err != nil {
		return nil, fmt.Errorf("runstore: corrupt key list in %s: %w", dir, err)
	}
	return keys, nil
}

// writeFileAtomic writes data to path via a same-directory temp file,
// fsync, rename, and directory fsync.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("runstore: write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("runstore: fsync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("runstore: close %s: %w", path, err)
	}
	if err := os.Chmod(tmpName, 0o644); err != nil {
		return fmt.Errorf("runstore: chmod %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("runstore: rename %s: %w", path, err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	return nil
}

package runstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// MergeReport summarizes a MergeRuns union for the caller to surface.
type MergeReport struct {
	// Shards lists the merged source directories, in argument order.
	Shards []string
	// Points is the number of distinct checkpoint keys in the union.
	Points int
	// Overlaps counts keys present in more than one shard. Overlapping
	// keys are benign only when every copy carries byte-identical
	// payloads (per-point seeding makes re-runs deterministic);
	// divergent payloads abort the merge instead of appearing here.
	Overlaps int
	// Gaps lists expected keys absent from the union, in expected-list
	// order — the points no shard completed. Nil when the sources carry
	// no expected-key sidecar to check against.
	Gaps []string
}

// MergeRuns unions the checkpoint logs of several shard run
// directories into a fresh run directory dst:
//
//   - every source must hold the same Command and ConfigHash (shards of
//     one sweep differ only in their Shard field) — a mismatch refuses
//     the merge, nothing is written;
//   - a key appearing in several shards must carry byte-identical
//     payloads in all of them; divergent duplicates mean the shards
//     were not runs of the same configuration and abort the merge;
//   - gaps are reported against the expected-key sidecar (keys.json)
//     when the sources carry one;
//   - dst receives the first shard's manifest with Shard cleared, the
//     union log in sorted-key order, and the first shard's spec/keys
//     sidecars, so the merged directory is resumable and regenerable
//     exactly like an unsharded run.
//
// dst must not already hold a run (Create's O_EXCL claim applies).
func MergeRuns(dst string, srcs []string) (MergeReport, error) {
	if len(srcs) == 0 {
		return MergeReport{}, fmt.Errorf("runstore: merge needs at least one source run directory")
	}
	report := MergeReport{Shards: append([]string(nil), srcs...)}

	manifests := make([]Manifest, len(srcs))
	for i, dir := range srcs {
		data, err := os.ReadFile(filepath.Join(dir, manifestName))
		if err != nil {
			return MergeReport{}, fmt.Errorf("runstore: %s is not a run directory: %w", dir, err)
		}
		if err := json.Unmarshal(data, &manifests[i]); err != nil {
			return MergeReport{}, fmt.Errorf("runstore: corrupt manifest in %s: %w", dir, err)
		}
		if i > 0 {
			if manifests[i].ConfigHash != manifests[0].ConfigHash {
				return MergeReport{}, fmt.Errorf("runstore: %w: %s was started with %s, %s with %s (refusing to mix results)",
					ErrConfigMismatch, srcs[0], manifests[0].ConfigHash, dir, manifests[i].ConfigHash)
			}
			if manifests[i].Command != manifests[0].Command {
				return MergeReport{}, fmt.Errorf("runstore: command mismatch: %s ran %q, %s ran %q",
					srcs[0], manifests[0].Command, dir, manifests[i].Command)
			}
		}
	}

	// Union the shard logs, tracking which shard first supplied each key
	// so a divergent duplicate names both sides.
	union := map[string]json.RawMessage{}
	origin := map[string]string{}
	overlaps := map[string]bool{}
	for _, dir := range srcs {
		points, _, err := loadPoints(filepath.Join(dir, pointsName))
		if err != nil {
			return MergeReport{}, err
		}
		for key, raw := range points {
			if prev, ok := union[key]; ok {
				if !bytes.Equal(prev, raw) {
					return MergeReport{}, fmt.Errorf("runstore: shards disagree on point %q: %s and %s hold different payloads (not runs of the same configuration?)",
						key, origin[key], dir)
				}
				overlaps[key] = true
				continue
			}
			union[key] = raw
			origin[key] = dir
		}
	}
	report.Points = len(union)
	report.Overlaps = len(overlaps)

	// Gap detection against the expected grid, when recorded.
	expected, err := ReadExpectedKeys(srcs[0])
	if err != nil {
		return MergeReport{}, err
	}
	if expected != nil {
		report.Gaps = []string{}
		for _, key := range expected {
			if _, ok := union[key]; !ok {
				report.Gaps = append(report.Gaps, key)
			}
		}
	}

	// Write the merged run: first shard's manifest with the shard mark
	// cleared, then the union in sorted-key order so merged logs are
	// deterministic regardless of shard argument order.
	m := manifests[0]
	m.Shard = ""
	run, err := Create(dst, m)
	if err != nil {
		return MergeReport{}, err
	}
	defer run.Close()
	keys := make([]string, 0, len(union))
	for key := range union {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if err := run.AppendPoint(key, union[key]); err != nil {
			return MergeReport{}, err
		}
	}
	// Carry the sidecars over so the merged directory can regenerate
	// CSVs and be gap-checked or resumed like any unsharded run.
	var spec json.RawMessage
	if ok, err := ReadSpec(srcs[0], &spec); err != nil {
		return MergeReport{}, err
	} else if ok {
		if err := WriteSpec(dst, spec); err != nil {
			return MergeReport{}, err
		}
	}
	if expected != nil {
		if err := WriteExpectedKeys(dst, expected); err != nil {
			return MergeReport{}, err
		}
	}
	if err := run.Close(); err != nil {
		return MergeReport{}, err
	}
	return report, nil
}

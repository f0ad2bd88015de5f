package experiment

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// Shard identifies one partition of a sharded sweep: the shard owns
// exactly the grid points whose checkpoint key hashes to Index mod
// Count. The zero value (Count 0) is the unsharded sweep and owns
// everything. Because per-point seeds derive from the point itself —
// never from scheduling or partition order — shard outputs are
// independent of how the grid was partitioned, which is what makes the
// merged union byte-identical to an unsharded run.
type Shard struct {
	Index int
	Count int
}

// ParseShard parses "i/N" (e.g. "0/3") with 0 <= i < N. The empty
// string is the unsharded zero value.
func ParseShard(s string) (Shard, error) {
	if s == "" {
		return Shard{}, nil
	}
	idx, cnt, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("experiment: bad shard %q (want i/N, e.g. 0/3)", s)
	}
	var sh Shard
	if _, err := fmt.Sscanf(idx, "%d", &sh.Index); err != nil {
		return Shard{}, fmt.Errorf("experiment: bad shard %q (want i/N, e.g. 0/3)", s)
	}
	if _, err := fmt.Sscanf(cnt, "%d", &sh.Count); err != nil {
		return Shard{}, fmt.Errorf("experiment: bad shard %q (want i/N, e.g. 0/3)", s)
	}
	if sh.String() != s {
		return Shard{}, fmt.Errorf("experiment: bad shard %q (want i/N, e.g. 0/3)", s)
	}
	if sh.Count < 1 || sh.Index < 0 || sh.Index >= sh.Count {
		return Shard{}, fmt.Errorf("experiment: bad shard %q: need 0 <= i < N", s)
	}
	return sh, nil
}

// Enabled reports whether the shard actually partitions the grid.
// A 1-way shard ("0/1") owns everything, like the zero value.
func (s Shard) Enabled() bool { return s.Count > 1 }

func (s Shard) String() string {
	if s.Count == 0 {
		return ""
	}
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// Owns reports whether this shard is responsible for the point with
// the given checkpoint key. Ownership is a pure function of the key
// bytes (FNV-1a 64 mod Count), so every process — across machines,
// without coordination — agrees on the partition.
func (s Shard) Owns(key string) bool {
	if !s.Enabled() {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64()%uint64(s.Count)) == s.Index
}

// OwnedKeys filters keys down to the ones this shard owns, preserving
// order.
func (s Shard) OwnedKeys(keys []string) []string {
	if !s.Enabled() {
		return keys
	}
	owned := make([]string, 0, len(keys)/s.Count+1)
	for _, k := range keys {
		if s.Owns(k) {
			owned = append(owned, k)
		}
	}
	return owned
}

// Keys enumerates the panel's checkpoint keys without running
// anything, in grid order (rates outer, depths inner) — the expected
// full grid that shard ownership filters and merge gap-detection
// checks against.
func (cfg PanelConfig) Keys(panel string) []string {
	keys := make([]string, 0, len(cfg.Rates)*len(cfg.Depths))
	for i := range cfg.Rates {
		for j := range cfg.Depths {
			keys = append(keys, PointKey(panel, i, j))
		}
	}
	return keys
}

// PanelFromCheckpoints rebuilds a panel purely from a checkpoint store
// — no simulation, no backend. It errors when any grid cell is missing
// from the store, listing the absent keys; a merged set of shard logs
// that covers the grid therefore reconstructs the exact PanelResult
// (and CSV bytes) an uninterrupted unsharded run would have produced.
func PanelFromCheckpoints(cfg PanelConfig, panel string, ck CheckpointStore) (PanelResult, error) {
	out := PanelResult{Config: cfg, Points: make([][]PointResult, len(cfg.Rates))}
	var missing []string
	for i := range cfg.Rates {
		out.Points[i] = make([]PointResult, len(cfg.Depths))
		for j := range cfg.Depths {
			key := PointKey(panel, i, j)
			raw, ok := ck.LookupPoint(key)
			if !ok {
				missing = append(missing, key)
				continue
			}
			pr, err := decodePoint(key, raw)
			if err != nil {
				return PanelResult{}, err
			}
			out.Points[i][j] = pr
		}
	}
	if len(missing) > 0 {
		return PanelResult{}, fmt.Errorf("experiment: panel %s is missing %d of %d points (e.g. %s) — merge all shards first",
			panel, len(missing), len(cfg.Rates)*len(cfg.Depths), missing[0])
	}
	return out, nil
}

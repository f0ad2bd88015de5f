package experiment

import (
	"encoding/json"
	"fmt"
)

// CheckpointStore is the durable per-point log a resumable sweep
// records into. *runstore.Run satisfies it; tests may substitute an
// in-memory fake. Implementations must be safe for concurrent use —
// panel grid points complete concurrently.
type CheckpointStore interface {
	// LookupPoint returns the previously checkpointed payload for key.
	LookupPoint(key string) (json.RawMessage, bool)
	// AppendPoint durably records payload under key; it must not return
	// until the record would survive a crash.
	AppendPoint(key string, payload any) error
}

// PointKey names a panel grid cell inside a checkpoint log. Keys are
// index-based; the run manifest's config hash (verified on resume)
// guarantees indices mean the same grid coordinates across runs.
func PointKey(panel string, rateIdx, depthIdx int) string {
	return fmt.Sprintf("%s/r%02d/d%02d", panel, rateIdx, depthIdx)
}

func decodePoint(key string, raw json.RawMessage) (PointResult, error) {
	var pr PointResult
	if err := json.Unmarshal(raw, &pr); err != nil {
		return PointResult{}, fmt.Errorf("experiment: corrupt checkpoint %q: %w", key, err)
	}
	return pr, nil
}

// lookupPoint restores the point checkpointed under key, counting it
// as restored. ok is false when ck holds no such point.
func lookupPoint(ck CheckpointStore, key string) (pr PointResult, ok bool, err error) {
	raw, ok := ck.LookupPoint(key)
	if !ok {
		return PointResult{}, false, nil
	}
	if pr, err = decodePoint(key, raw); err != nil {
		return PointResult{}, false, err
	}
	pointsRestored.Inc()
	return pr, true, nil
}

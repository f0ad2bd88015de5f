package sim

import (
	"sync"

	"qfarith/internal/telemetry"
)

// Scratch-pool telemetry: how often the trajectory hot path recycles a
// pooled statevector versus allocating a fresh 2^n-amplitude slice.
// Resolved once at init; recording is a single atomic add, so the
// zero-alloc contract of the pool is preserved.
var (
	scratchReuse = telemetry.Default().Counter("qfarith_scratch_states_total", telemetry.L("result", "reuse"))
	scratchAlloc = telemetry.Default().Counter("qfarith_scratch_states_total", telemetry.L("result", "alloc"))
)

// statePools holds per-qubit-count free lists of scratch states so the
// trajectory hot path can reuse statevectors instead of allocating
// 2^n-amplitude slices per call. Pool index is the qubit count.
var statePools [MaxQubits + 1]sync.Pool

// GetScratchState returns an n-qubit state from the scratch pool. Its
// amplitude contents are undefined — callers must initialise it with
// SetAmplitudes, SetBasis, or CopyFrom before use. The worker setting is
// reset to 1; call SetWorkers to re-enable parallel kernels.
func GetScratchState(n int) *State {
	if s, ok := statePools[n].Get().(*State); ok {
		s.workers = 1
		scratchReuse.Inc()
		return s
	}
	scratchAlloc.Inc()
	return NewState(n)
}

// PutScratchState returns a state obtained from GetScratchState (or any
// State the caller no longer needs) to the scratch pool.
func PutScratchState(s *State) {
	if s == nil {
		return
	}
	statePools[s.n].Put(s)
}

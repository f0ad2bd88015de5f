// Package backend is the unified execution layer: it owns how a single
// prepared circuit execution ("point spec") is evaluated under noise,
// behind a pluggable Backend interface. Two implementations ship:
//
//   - TrajectoryBackend ("trajectory", the default and the only choice
//     at large widths) — the stratified Pauli-trajectory mixture engine
//     (internal/noise). A circuit whose key registers stay in the
//     computational basis (the operands of the paper's adders and
//     multipliers, routed or not), run on an input spanning few key
//     values, takes the factored path: the input terms load straight
//     into sim.Blocks, one small State per live key value, and no 2^n
//     state is taken. Other runs take the dense path, one statevector
//     through noise.MixtureInto. Both paths are bit-identical for equal
//     seeds. "trajectory-batch" is a registry alias for the same
//     backend, kept so run directories that recorded that name still
//     resume;
//   - DensityBackend — exact density-matrix channel evolution
//     (internal/density), quadratically more expensive but Monte-Carlo
//     free, usable as ground truth at small register widths.
//
// Inputs are sparse (PointSpec.Initial lists the nonzero amplitudes), so
// a dense trajectory run holds two 2^n statevectors — the error-free
// prefix and the trajectory being run — and a factored run two sets of
// live blocks.
//
// The package also provides a Runner (one bounded worker pool shared
// across every parallelism level of a sweep, with context cancellation)
// and a TranspileCache (build each distinct circuit once per process).
// Higher layers — internal/experiment, cmd/qfarith, the examples — pick
// a backend by name and submit work through a Runner; future scaling
// work (sharding, remote workers, batching) plugs in as new Backend
// implementations without touching the experiment layer.
package backend

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"qfarith/internal/noise"
	"qfarith/internal/sim"
	"qfarith/internal/transpile"
)

// Distribution is a measurement probability distribution over the
// outcomes of a measured register (index = outcome value).
type Distribution []float64

// PointSpec describes one circuit execution: a transpiled circuit, the
// noise model attached to its native gates, the prepared input state,
// and which qubits are measured. It is the unit of work a Backend
// evaluates; the experiment layer submits one PointSpec per operand
// instance of a plotted point.
type PointSpec struct {
	// Circuit is the transpiled circuit to execute. Backends treat it as
	// immutable, so specs sharing a cached *transpile.Result are safe to
	// run concurrently.
	Circuit *transpile.Result
	// Model is the depolarizing gate-noise model.
	Model noise.Model
	// Initial lists the prepared input's nonzero amplitudes, with
	// distinct indices; backends normalize the state they describe.
	// Empty means the all-zeros basis state.
	Initial []Amp
	// Measure lists the measured qubits, LSB first. The returned
	// Distribution has length 2^len(Measure).
	Measure []int
	// Trajectories bounds the Monte Carlo effort of stochastic backends;
	// exact backends ignore it.
	Trajectories int
	// Seed1, Seed2 seed the RNG of stochastic backends (two-word PCG
	// seed); exact backends ignore them.
	Seed1, Seed2 uint64
}

// Amp is one term of a sparse input state: amplitude Value on the
// computational basis state Index.
type Amp struct {
	Index int
	Value complex128
}

// validate rejects malformed specs with a descriptive error.
func (s PointSpec) validate() error {
	if s.Circuit == nil {
		return fmt.Errorf("backend: PointSpec.Circuit is nil")
	}
	if len(s.Measure) == 0 {
		return fmt.Errorf("backend: PointSpec.Measure is empty")
	}
	n := s.Circuit.NumQubits
	// An out-of-range or repeated measured qubit would make the
	// probability walks shift by a meaningless amount and fold mass into
	// the wrong bins, so reject it here.
	for i, q := range s.Measure {
		if q < 0 || q >= n {
			return fmt.Errorf("backend: measured qubit %d is %d, outside [0, %d)", i, q, n)
		}
		for j, p := range s.Measure[:i] {
			if p == q {
				return fmt.Errorf("backend: measured qubit %d repeats qubit %d (also measured qubit %d)", i, q, j)
			}
		}
	}
	var norm2 float64
	for i, a := range s.Initial {
		if a.Index < 0 || a.Index >= 1<<uint(n) {
			return fmt.Errorf("backend: initial term %d has index %d, outside [0, 2^%d)", i, a.Index, n)
		}
		for _, b := range s.Initial[:i] {
			if b.Index == a.Index {
				return fmt.Errorf("backend: initial term %d repeats index %d", i, a.Index)
			}
		}
		norm2 += real(a.Value)*real(a.Value) + imag(a.Value)*imag(a.Value)
	}
	if len(s.Initial) > 0 && !(norm2 > 0 && norm2 <= math.MaxFloat64) {
		return fmt.Errorf("backend: initial state has squared norm %g over %d terms, want finite and nonzero", norm2, len(s.Initial))
	}
	return nil
}

// prepare loads the spec's input state into st: the Initial terms on a
// zeroed state, normalized. The result is bit-identical to SetAmplitudes
// on the equivalent dense vector, whose zeros add exactly 0 to the norm.
func (s PointSpec) prepare(st *sim.State) {
	if len(s.Initial) == 0 {
		st.SetBasis(0)
		return
	}
	amps := st.Amps()
	clear(amps)
	for _, a := range s.Initial {
		amps[a.Index] = a.Value
	}
	st.Normalize()
}

// prepareBlocks loads the spec's input as live blocks over engine's key
// qubits (the factored state), straight from the sparse terms, and
// normalizes it. It returns nil — the run takes the dense path — when
// the circuit has no key qubits or the input spans too many key values
// for the blocks to pay off (noise.Engine.FactoredFits).
func (s PointSpec) prepareBlocks(engine *noise.Engine) *sim.Blocks {
	mask := engine.KeyMask()
	if mask == 0 {
		return nil
	}
	fs := sim.GetBlocks(s.Circuit.NumQubits, mask)
	if len(s.Initial) == 0 {
		fs.Set(0, 1)
	}
	for _, a := range s.Initial {
		fs.Set(a.Index, a.Value)
		if !engine.FactoredFits(fs.Len()) {
			break // no need to load the rest
		}
	}
	if !engine.FactoredFits(fs.Len()) {
		sim.PutBlocks(fs)
		return nil
	}
	noise.NormalizeBlocks(fs)
	return fs
}

// Diagnostics reports execution metadata alongside a distribution.
type Diagnostics struct {
	// Backend is the name of the backend that produced the result.
	Backend string
	// NoErrorProb is w0, the probability that a shot sees no error
	// anywhere in the circuit under the spec's model.
	NoErrorProb float64
	// ExpectedErrors is the mean number of error events per shot.
	ExpectedErrors float64
	// Ideal is the error-free reference distribution (for fidelity
	// diagnostics), when the backend computes it as a by-product.
	Ideal Distribution
}

// Backend evaluates point specs. Implementations must be safe for
// concurrent Run calls: the Runner dispatches many specs onto one
// backend from multiple worker goroutines.
type Backend interface {
	// Name returns the registry name of the backend.
	Name() string
	// Run evaluates spec and returns the measured register's output
	// distribution. It honors ctx cancellation between units of work and
	// returns ctx.Err() if cancelled.
	Run(ctx context.Context, spec PointSpec) (Distribution, Diagnostics, error)
}

// DefaultName is the backend used when no name is given: the trajectory
// mixture engine, which reproduces the paper's figures.
const DefaultName = "trajectory"

var (
	registryMu sync.RWMutex
	registry   = map[string]func() Backend{
		"trajectory":       func() Backend { return NewTrajectoryBackend() },
		"trajectory-batch": func() Backend { return NewTrajectoryBackend() },
		"density":          func() Backend { return NewDensityBackend() },
	}
)

// Register adds a backend constructor under name, replacing any
// previous registration. Each New call invokes the constructor, so
// backends may carry per-instance caches.
func Register(name string, factory func() Backend) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[name] = factory
}

// New constructs the named backend ("" selects DefaultName).
func New(name string) (Backend, error) {
	if name == "" {
		name = DefaultName
	}
	registryMu.RLock()
	factory, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("backend: unknown backend %q (have %v)", name, Names())
	}
	return factory(), nil
}

// Names lists the registered backend names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

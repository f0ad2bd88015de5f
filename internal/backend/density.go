package backend

import (
	"context"
	"fmt"

	"qfarith/internal/density"
	"qfarith/internal/noise"
	"qfarith/internal/sim"
)

// DensityBackend evaluates point specs by exact density-matrix channel
// evolution (internal/density): every native gate's depolarizing channel
// is applied as the full Pauli mixture, so the output distribution is
// the true channel output with zero Monte Carlo variance. Cost is
// quadratic in state dimension, so the backend refuses circuits wider
// than density.MaxQubits; use it as ground truth for small registers and
// as the cross-check for the trajectory estimator.
type DensityBackend struct{}

// NewDensityBackend returns the exact density-matrix backend.
func NewDensityBackend() *DensityBackend { return &DensityBackend{} }

// Name implements Backend.
func (d *DensityBackend) Name() string { return "density" }

// Run implements Backend. Trajectories, Seed1 and Seed2 are ignored:
// the evolution is exact and deterministic.
func (d *DensityBackend) Run(ctx context.Context, spec PointSpec) (Distribution, Diagnostics, error) {
	if err := spec.validate(); err != nil {
		return nil, Diagnostics{}, err
	}
	if err := ctx.Err(); err != nil {
		return nil, Diagnostics{}, err
	}
	n := spec.Circuit.NumQubits
	if n > density.MaxQubits {
		return nil, Diagnostics{}, fmt.Errorf(
			"backend: density backend supports at most %d qubits, circuit has %d (use the trajectory backend)",
			density.MaxQubits, n)
	}

	// Expand the sparse input: at these widths a dense copy is cheap
	// next to the 4^n density matrix.
	initial := make([]complex128, 1<<uint(n))
	if len(spec.Initial) == 0 {
		initial[0] = 1
	}
	for _, a := range spec.Initial {
		initial[a.Index] = a.Value
	}

	// Error-free reference distribution via the statevector simulator.
	st := sim.NewState(n)
	st.SetAmplitudes(initial)
	for _, op := range spec.Circuit.Source {
		st.ApplyOp(op)
	}
	ideal := Distribution(st.RegisterProbs(spec.Measure))

	rho := density.FromPure(initial)
	density.RunNoisy(rho, spec.Circuit, spec.Model)
	dist := Distribution(rho.RegisterProbs(spec.Measure))

	// w0 / expected-errors diagnostics come from the trajectory engine's
	// per-gate bookkeeping; building one is O(gates), negligible next to
	// the density evolution itself.
	engine := noise.NewEngine(spec.Circuit, spec.Model)
	diag := Diagnostics{
		Backend:        d.Name(),
		NoErrorProb:    engine.NoErrorProb(),
		ExpectedErrors: engine.ExpectedErrors(),
		Ideal:          ideal,
	}
	return dist, diag, nil
}

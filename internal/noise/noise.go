// Package noise implements the paper's tunable gate-noise models and a
// stochastic Pauli trajectory engine for simulating them.
//
// The paper attaches depolarizing channels to the 1q and 2q gates of the
// IBM native basis and sweeps the two error rates independently. A
// depolarizing channel is exactly a Pauli mixture, so the density-matrix
// evolution can be sampled as trajectories: each noisy native gate is
// followed, with the channel's branch probabilities, by a uniformly
// random non-identity Pauli on its qubits. Averaging trajectory output
// distributions (with the exact no-error trajectory stratified out)
// converges to the channel's true output distribution.
package noise

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"qfarith/internal/gate"
	"qfarith/internal/transpile"
)

// Model describes which native gates are noisy and how much.
type Model struct {
	// OneQubit is the depolarizing parameter λ1 attached to native 1q
	// gates: E(ρ) = (1-λ)ρ + λ I/2, i.e. X, Y, Z each with probability
	// λ1/4. This matches qiskit's depolarizing_error(λ, 1).
	OneQubit float64
	// TwoQubit is the depolarizing parameter λ2 attached to CX gates:
	// each of the 15 non-identity two-qubit Paulis with probability
	// λ2/16 (qiskit's depolarizing_error(λ, 2)).
	TwoQubit float64
	// NoiseOnRZ controls whether λ1 also attaches to RZ and Id gates.
	// On IBM hardware RZ is a virtual, error-free frame change, but the
	// paper's Table I counts every 1q gate — including the rotation
	// phases — toward its 1q totals, matching the common Qiskit noise-
	// model recipe that adds the 1q error to {id, rz, sx, x}. True
	// reproduces the paper; false models hardware-virtual RZ.
	NoiseOnRZ bool
}

// PaperModel returns the paper's noise configuration for given 1q and 2q
// depolarizing error rates (the x-axes of Figs. 3 and 4, as fractions,
// e.g. 0.01 for 1%).
func PaperModel(p1q, p2q float64) Model {
	return Model{OneQubit: p1q, TwoQubit: p2q, NoiseOnRZ: true}
}

// Noiseless is the zero-noise model used for the x-origin reference
// points in the paper's figures.
var Noiseless = Model{}

// errorProb returns the probability that the channel attached to a
// native gate kind inserts a non-identity Pauli, or 0 if the gate is
// noise-free under m.
func (m Model) errorProb(k gate.Kind) float64 {
	switch k {
	case gate.CX:
		return m.TwoQubit * 15.0 / 16.0
	case gate.X, gate.SX:
		return m.OneQubit * 3.0 / 4.0
	case gate.I, gate.RZ:
		if m.NoiseOnRZ {
			return m.OneQubit * 3.0 / 4.0
		}
		return 0
	default:
		panic(fmt.Sprintf("noise: %s is not a native gate", k))
	}
}

// Event is one sampled Pauli insertion: after native op PhysIdx, apply
// Pauli(s) encoded in Pauli — for a 1q gate 1..3 (X, Y, Z); for a CX,
// 1..15 encoding 4*pc + pt over {I,X,Y,Z} with pc on the control and pt
// on the target, not both identity.
type Event struct {
	PhysIdx int
	Pauli   uint8
}

// Engine samples Pauli-insertion trajectories for one transpiled circuit
// under one noise model. It precomputes per-gate error probabilities and
// the first-error distribution so conditional (≥1 error) trajectories
// are drawn exactly without rejection.
type Engine struct {
	Res   *transpile.Result
	Model Model

	probs []float64 // per-native-op error probability
	// cumFirst[i] = P(first error at op ≤ i | ≥1 error), for exact
	// conditional sampling by binary search.
	cumFirst []float64
	w0       float64 // probability of a completely error-free shot
	noisyOps int
	// spanOf[pi] is the source-span index containing native op pi, used
	// to locate the first span a trajectory's events touch.
	spanOf []int

	// The block plans, each built on first use: over the key wires
	// (keyedPlan), and one block over every wire (flatPlan).
	keyedOnce sync.Once
	keyed     *factPlan
	flatOnce  sync.Once
	flat      *factPlan
}

// NewEngine prepares trajectory sampling for res under model.
func NewEngine(res *transpile.Result, model Model) *Engine {
	e := &Engine{Res: res, Model: model}
	e.probs = make([]float64, len(res.Ops))
	for i, op := range res.Ops {
		p := model.errorProb(op.Kind)
		e.probs[i] = p
		if p > 0 {
			e.noisyOps++
		}
	}
	// Survival prefix products and the first-error CDF.
	e.w0 = 1
	surv := make([]float64, len(res.Ops)+1)
	surv[0] = 1
	for i, p := range e.probs {
		surv[i+1] = surv[i] * (1 - p)
	}
	e.w0 = surv[len(res.Ops)]
	if e.w0 < 1 {
		e.cumFirst = make([]float64, len(res.Ops))
		acc := 0.0
		norm := 1 - e.w0
		for i, p := range e.probs {
			acc += surv[i] * p / norm
			e.cumFirst[i] = acc
		}
		e.cumFirst[len(res.Ops)-1] = 1
	}
	e.spanOf = make([]int, len(res.Ops))
	for si, sp := range res.Spans {
		for pi := sp.Start; pi < sp.End; pi++ {
			e.spanOf[pi] = si
		}
	}
	return e
}

// NoErrorProb returns w0, the probability that a shot sees no Pauli
// insertion anywhere in the circuit.
func (e *Engine) NoErrorProb() float64 { return e.w0 }

// NoisyOps returns how many native ops carry a nonzero error probability.
func (e *Engine) NoisyOps() int { return e.noisyOps }

// samplePauli draws the Pauli label for an event at op i.
func (e *Engine) samplePauli(i int, rng *rand.Rand) uint8 {
	if e.Res.Ops[i].Kind == gate.CX {
		return uint8(1 + rng.IntN(15))
	}
	return uint8(1 + rng.IntN(3))
}

// SampleConditional draws a trajectory conditioned on at least one error:
// the first error position comes from the exact conditional distribution,
// and every later op errs independently. The returned events are sorted
// by PhysIdx. Returns nil if the model is noiseless.
func (e *Engine) SampleConditional(rng *rand.Rand) []Event {
	if e.w0 >= 1 {
		return nil
	}
	return e.sampleConditionalAppend(make([]Event, 0, 4), rng)
}

// sampleConditionalAppend draws one conditional trajectory with the
// exact RNG consumption of SampleConditional, appending its events to
// dst. The engine must not be noiseless. Used by Mixture to gather
// all trajectories into one reusable buffer before simulating.
func (e *Engine) sampleConditionalAppend(dst []Event, rng *rand.Rand) []Event {
	u := rng.Float64()
	first := searchFloat(e.cumFirst, u)
	dst = append(dst, Event{PhysIdx: first, Pauli: e.samplePauli(first, rng)})
	for i := first + 1; i < len(e.probs); i++ {
		if p := e.probs[i]; p > 0 && rng.Float64() < p {
			dst = append(dst, Event{PhysIdx: i, Pauli: e.samplePauli(i, rng)})
		}
	}
	return dst
}

// SampleUnconditional draws a trajectory from the unconditioned channel
// (may be empty, meaning an error-free shot).
func (e *Engine) SampleUnconditional(rng *rand.Rand) []Event {
	var events []Event
	for i, p := range e.probs {
		if p > 0 && rng.Float64() < p {
			events = append(events, Event{PhysIdx: i, Pauli: e.samplePauli(i, rng)})
		}
	}
	return events
}

// ExpectedErrors returns the mean number of Pauli insertions per shot,
// a useful scale indicator (≈ G1·3λ1/4 + G2·15λ2/16).
func (e *Engine) ExpectedErrors() float64 {
	var s float64
	for _, p := range e.probs {
		s += p
	}
	return s
}

func searchFloat(cum []float64, u float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// AvgGateError converts a depolarizing parameter λ on a d-dimensional
// gate (d=2 for 1q, d=4 for 2q) into the average gate error reported by
// randomized benchmarking: ε = λ(d-1)/d. Provided so users can map
// hardware-reported error rates onto Model parameters.
func AvgGateError(lambda float64, numQubits int) float64 {
	d := math.Pow(2, float64(numQubits))
	return lambda * (d - 1) / d
}

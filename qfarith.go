// Package qfarith is a Go library for Quantum Fourier arithmetic under
// tunable gate noise, reproducing "Performance Evaluations of Noisy
// Approximate Quantum Fourier Arithmetic" (Basili et al., IPPS 2022).
//
// It provides Draper-style Quantum Fourier Addition (QFA), weighted-sum
// Quantum Fourier Multiplication (QFM), the approximate QFT (AQFT) with
// a tunable rotation depth, transpilation to the IBM native basis
// {id, x, rz, sx, cx}, depolarizing gate-noise models sampled as Pauli
// trajectories, and the paper's success metric.
//
// The root package is a convenience façade over the internal engine:
//
//	x := qfarith.Uniform(7, 19, 100)       // order-2 qinteger
//	y := qfarith.Basis(8, 7)               // order-1 qinteger
//	res := qfarith.Add(x, y,
//	    qfarith.WithDepth(3),
//	    qfarith.WithNoise(0.002, 0.01))
//	fmt.Println(res.Success, res.TopOutcomes(4))
package qfarith

import (
	"context"
	"fmt"

	"qfarith/internal/backend"
	"qfarith/internal/experiment"
	"qfarith/internal/metrics"
	"qfarith/internal/noise"
	"qfarith/internal/qft"
	"qfarith/internal/qint"
	"qfarith/internal/sim"
	"qfarith/internal/transpile"
)

// QInt is a quantum integer: a superposition of integer states on a
// fixed-width register. See Basis, Uniform and Superposition.
type QInt = qint.QInt

// Term is one integer component of a QInt.
type Term = qint.Term

// FullDepth requests the exact (untruncated) QFT.
const FullDepth = qft.Full

// Basis returns the order-1 qinteger |value> on width qubits.
func Basis(width, value int) QInt { return qint.NewBasis(width, value) }

// Uniform returns an evenly-weighted superposition of the given distinct
// values on width qubits — the paper's order-k operand states.
func Uniform(width int, values ...int) QInt { return qint.NewUniform(width, values...) }

// Superposition returns a qinteger with explicit complex amplitudes
// (normalized).
func Superposition(width int, terms []Term) QInt { return qint.New(width, terms) }

// Options configure an arithmetic simulation.
type Options struct {
	// Depth is the AQFT approximation depth (default FullDepth).
	Depth int
	// OneQubitError and TwoQubitError are the depolarizing rates λ1, λ2
	// attached to native 1q gates and CX gates (default 0: noiseless).
	OneQubitError float64
	TwoQubitError float64
	// NoiseOnRZ mirrors the paper's convention of counting RZ among the
	// noisy 1q gates (default true whenever OneQubitError > 0).
	NoiseOnRZ *bool
	// Shots per instance (default 2048, the paper's setting).
	Shots int
	// Trajectories bounds the Monte Carlo estimate of the noisy output
	// distribution (default 64; use Shots for exact per-shot semantics).
	Trajectories int
	// Seed makes the run reproducible (default 1).
	Seed uint64
	// Backend selects an execution backend from internal/backend's
	// registry ("trajectory", "density"); empty means "trajectory".
	Backend string
}

// Option mutates Options.
type Option func(*Options)

// WithDepth sets the AQFT approximation depth.
func WithDepth(d int) Option { return func(o *Options) { o.Depth = d } }

// WithNoise sets the 1q and 2q depolarizing error rates (fractions, e.g.
// 0.01 for 1%).
func WithNoise(p1q, p2q float64) Option {
	return func(o *Options) { o.OneQubitError, o.TwoQubitError = p1q, p2q }
}

// WithShots sets the measurement shot count.
func WithShots(n int) Option { return func(o *Options) { o.Shots = n } }

// WithTrajectories sets the Monte Carlo trajectory count.
func WithTrajectories(k int) Option { return func(o *Options) { o.Trajectories = k } }

// WithSeed sets the RNG seed.
func WithSeed(s uint64) Option { return func(o *Options) { o.Seed = s } }

// WithHardwareRZ disables noise on RZ gates, modeling IBM's virtual
// (error-free) RZ instead of the paper's all-1q-gates convention.
func WithHardwareRZ() Option {
	f := false
	return func(o *Options) { o.NoiseOnRZ = &f }
}

// WithBackend routes execution through the named pluggable backend:
// "trajectory" for the stratified Pauli-trajectory mixture engine,
// "density" for exact density-matrix channel evolution (registers up to
// 10 qubits). Panics on an unknown name, like the other construction
// errors of this facade. Without it the facade runs "trajectory".
func WithBackend(name string) Option { return func(o *Options) { o.Backend = name } }

func buildOptions(opts []Option) Options {
	o := Options{Depth: FullDepth, Shots: 2048, Trajectories: 64, Seed: 1}
	for _, f := range opts {
		f(&o)
	}
	if o.Depth < 1 {
		o.Depth = 1
	}
	if o.Shots < 1 {
		o.Shots = 1
	}
	if o.Trajectories < 1 {
		o.Trajectories = 1
	}
	return o
}

func (o Options) model() noise.Model {
	m := noise.Model{OneQubit: o.OneQubitError, TwoQubit: o.TwoQubitError, NoiseOnRZ: true}
	if o.NoiseOnRZ != nil {
		m.NoiseOnRZ = *o.NoiseOnRZ
	}
	return m
}

// Result reports one simulated arithmetic instance.
type Result struct {
	// OutputBits is the measured register width; outcomes are integers
	// in [0, 2^OutputBits).
	OutputBits int
	// Probs is the simulated output distribution (noise included).
	Probs []float64
	// Counts is the sampled shot histogram.
	Counts []int
	// Expected is the set of correct outputs given the operands.
	Expected map[int]bool
	// Success and Margin apply the paper's metric to Counts.
	Success bool
	Margin  int
	// Gate counts of the simulated circuit (paper Table I convention
	// and fully native).
	Gates GateCounts
}

// GateCounts summarizes circuit size.
type GateCounts struct {
	Paper1q, Paper2q   int
	Native1q, Native2q int
}

// TopOutcomes returns the k most frequent outcomes of the shot histogram.
func (r Result) TopOutcomes(k int) []int { return metrics.TopOutcomes(r.Counts, k) }

// Add simulates Quantum Fourier Addition of x into a y-sized register:
// the returned outcomes are (x + y) mod 2^y.Width. The x register must
// not be wider than y's.
func Add(x, y QInt, opts ...Option) Result {
	if x.Width > y.Width {
		panic(fmt.Sprintf("qfarith: addend width %d exceeds sum register width %d", x.Width, y.Width))
	}
	o := buildOptions(opts)
	geo := experiment.AddGeometry(x.Width, y.Width)
	res := geo.BuildCircuit(o.Depth)
	initial := qint.Product(x, y)
	expected := metrics.CorrectSums(x.Values(), y.Values(), y.Width)
	return runResult(o, geo, res, initial, expected)
}

// Sub simulates Fourier subtraction: outcomes are (y - x) mod 2^y.Width.
func Sub(x, y QInt, opts ...Option) Result {
	if x.Width > y.Width {
		panic(fmt.Sprintf("qfarith: subtrahend width %d exceeds register width %d", x.Width, y.Width))
	}
	o := buildOptions(opts)
	geo := experiment.SubGeometry(x.Width, y.Width)
	res := geo.BuildCircuit(o.Depth)
	initial := qint.Product(x, y)
	mask := 1<<uint(y.Width) - 1
	expected := make(map[int]bool)
	for _, xv := range x.Values() {
		for _, yv := range y.Values() {
			expected[(yv-xv)&mask] = true
		}
	}
	return runResult(o, geo, res, initial, expected)
}

// Mul simulates Quantum Fourier Multiplication: outcomes are x·y on a
// product register of x.Width+y.Width qubits.
func Mul(x, y QInt, opts ...Option) Result {
	o := buildOptions(opts)
	geo := experiment.MulGeometry(x.Width, y.Width)
	res := geo.BuildCircuit(o.Depth)
	z := qint.NewBasis(x.Width+y.Width, 0)
	initial := qint.Product(z, y, x)
	expected := metrics.CorrectProducts(x.Values(), y.Values(), x.Width+y.Width)
	return runResult(o, geo, res, initial, expected)
}

func runResult(o Options, geo experiment.Geometry, res *transpile.Result, initial []complex128, expected map[int]bool) Result {
	b, err := backend.New(o.Backend)
	if err != nil {
		panic("qfarith: " + err.Error())
	}
	var terms []backend.Amp
	for i, a := range initial {
		if a != 0 {
			terms = append(terms, backend.Amp{Index: i, Value: a})
		}
	}
	dist, _, err := b.Run(context.Background(), backend.PointSpec{
		Circuit:      res,
		Model:        o.model(),
		Initial:      terms,
		Measure:      geo.OutReg,
		Trajectories: o.Trajectories,
		Seed1:        o.Seed,
		Seed2:        o.Seed ^ 0x6a09e667f3bcc909,
	})
	if err != nil {
		panic("qfarith: " + err.Error())
	}
	sampler := sim.NewSampler(o.Seed^0x9e3779b97f4a7c15, o.Seed)
	counts := sampler.Counts(dist, o.Shots)
	score := metrics.Score(counts, expected)
	n1, n2 := res.CountByArity()
	src := circuitNew(res.NumQubits)
	src.Ops = append(src.Ops, res.Source...)
	p1, p2 := transpile.PaperCounts(src)
	return Result{
		OutputBits: geo.OutBits,
		Probs:      dist,
		Counts:     counts,
		Expected:   expected,
		Success:    score.Success,
		Margin:     score.Margin,
		Gates:      GateCounts{Paper1q: p1, Paper2q: p2, Native1q: n1, Native2q: n2},
	}
}

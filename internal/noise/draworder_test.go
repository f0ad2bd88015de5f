package noise_test

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"qfarith/internal/gate"
	"qfarith/internal/noise"
	"qfarith/internal/testutil"
)

// mirrorSampler re-derives the engine's conditional sampler from the
// RNG draw-order contract in DESIGN.md ("RNG draw-order contract"),
// using only the exported model and circuit. If the engine ever
// consumes randomness in a different order — an extra draw, a skipped
// draw, a reordered Pauli label — the mirrored stream diverges and the
// tests below fail. The order is load-bearing: fixed-seed sweep CSVs
// (and the dense/factored bit-identity guarantee) depend on it.
type mirrorSampler struct {
	kinds    []gate.Kind
	probs    []float64
	cumFirst []float64
}

func newMirrorSampler(e *noise.Engine) *mirrorSampler {
	m := &mirrorSampler{}
	for _, op := range e.Res.Ops {
		m.kinds = append(m.kinds, op.Kind)
		var p float64
		switch op.Kind {
		case gate.CX:
			p = e.Model.TwoQubit * 15.0 / 16.0
		case gate.X, gate.SX:
			p = e.Model.OneQubit * 3.0 / 4.0
		case gate.I, gate.RZ:
			if e.Model.NoiseOnRZ {
				p = e.Model.OneQubit * 3.0 / 4.0
			}
		}
		m.probs = append(m.probs, p)
	}
	// First-error CDF, same arithmetic order as noise.NewEngine so the
	// floats are bit-identical.
	surv := 1.0
	acc := 0.0
	m.cumFirst = make([]float64, len(m.probs))
	w0 := surv
	for _, p := range m.probs {
		w0 *= 1 - p
	}
	norm := 1 - w0
	for i, p := range m.probs {
		acc += surv * p / norm
		m.cumFirst[i] = acc
		surv *= 1 - p
	}
	m.cumFirst[len(m.cumFirst)-1] = 1
	return m
}

func (m *mirrorSampler) pauli(i int, rng *rand.Rand) uint8 {
	if m.kinds[i] == gate.CX {
		return uint8(1 + rng.IntN(15))
	}
	return uint8(1 + rng.IntN(3))
}

// sample draws one conditional trajectory per the documented contract:
// one uniform for the first-error position (binary search in cumFirst),
// its Pauli label, then one Bernoulli per later noisy op with a label
// draw on each hit. Ops with zero error probability consume nothing.
func (m *mirrorSampler) sample(rng *rand.Rand) []noise.Event {
	u := rng.Float64()
	lo, hi := 0, len(m.cumFirst)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if m.cumFirst[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	events := []noise.Event{{PhysIdx: lo, Pauli: m.pauli(lo, rng)}}
	for i := lo + 1; i < len(m.probs); i++ {
		if p := m.probs[i]; p > 0 && rng.Float64() < p {
			events = append(events, noise.Event{PhysIdx: i, Pauli: m.pauli(i, rng)})
		}
	}
	return events
}

// TestConditionalDrawOrderContract checks SampleConditional against the
// independently mirrored sampler over many sequential trajectories
// sharing one RNG stream — exactly how MixtureInto consumes it.
func TestConditionalDrawOrderContract(t *testing.T) {
	e := qfaEngine(3, noise.PaperModel(0.01, 0.03))
	m := newMirrorSampler(e)
	rngEngine := testutil.NewRand(7)
	rngMirror := testutil.NewRand(7)
	for traj := 0; traj < 256; traj++ {
		got := e.SampleConditional(rngEngine)
		want := m.sample(rngMirror)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trajectory %d: engine events %v, mirror (DESIGN.md contract) %v", traj, got, want)
		}
	}
}

// TestConditionalDrawOrderPinned pins the literal event sequence for a
// fixed seed. This golden sequence freezes the RNG draw order end to
// end (PCG stream, CDF construction, binary-search tie-breaking, Pauli
// label draws): a diff here means previously recorded fixed-seed sweep
// results no longer reproduce, which must be a deliberate, documented
// break — update DESIGN.md's contract section along with this table.
func TestConditionalDrawOrderPinned(t *testing.T) {
	e := qfaEngine(3, noise.PaperModel(0.01, 0.03))
	rng := testutil.NewRand(7)
	want := [][]noise.Event{
		{{3, 1}},
		{{53, 4}},
		{{126, 2}},
		{{29, 14}, {78, 13}, {81, 3}},
		{{60, 14}, {76, 3}, {110, 3}, {114, 15}},
		{{113, 3}},
		{{72, 2}, {103, 1}, {108, 3}},
		{{29, 9}, {63, 14}, {70, 5}},
	}
	for traj, wantEv := range want {
		got := e.SampleConditional(rng)
		var gotCompact []noise.Event
		gotCompact = append(gotCompact, got...)
		if !reflect.DeepEqual(gotCompact, wantEv) {
			t.Fatalf("trajectory %d: got %v, want pinned %v", traj, got, wantEv)
		}
	}
}

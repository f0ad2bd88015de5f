package noise

import (
	"math/rand/v2"

	"qfarith/internal/sim"
)

// KeyMask returns the key wires of the engine's keyed block plan, or 0
// when only the one-block layout applies.
func (e *Engine) KeyMask() uint64 {
	if p := e.keyedPlan(); p != nil {
		return p.mask
	}
	return 0
}

// MixtureLayout is Mixture with the block layout forced: under the
// keyed plan (which must exist), whatever the input's key count, or
// under the one-block plan.
func (e *Engine) MixtureLayout(out []float64, initial []sim.Amp, opts MixtureOpts, rng *rand.Rand, keyed bool) {
	p := e.flatPlan()
	if keyed {
		p = e.keyedPlan()
	}
	sc := mixPool.Get().(*mixScratch)
	defer mixPool.Put(sc)
	fs := sim.GetBlocks(e.Res.NumQubits, p.mask)
	defer sim.PutBlocks(fs)
	if len(initial) == 0 {
		fs.Set(0, 1)
	}
	for _, a := range initial {
		fs.Set(a.Index, a.Value)
	}
	normalizeBlocks(fs, sc)
	e.mixtureBlocks(out, p, fs, sc, opts, rng)
}

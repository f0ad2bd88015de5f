package backend

import (
	"container/list"
	"context"
	"math/rand/v2"
	"sync"

	"qfarith/internal/noise"
	"qfarith/internal/sim"
	"qfarith/internal/telemetry"
	"qfarith/internal/transpile"
)

// maxCachedEngines bounds the trajectory backend's engine cache. A
// figure sweep touches (circuits × error rates) engine keys; the
// largest paper panel needs well under this many live at once, and the
// LRU keeps a long-lived process (or a sweep over many custom rate
// grids) from accumulating one engine per key forever.
const maxCachedEngines = 64

// Engine-cache telemetry, resolved once: re-resolving a labeled
// counter builds its identity string, and engine() sits on the
// per-instance hot path.
var (
	engineCacheHit      = cacheCounter("engine", "hit", "")
	engineCacheMiss     = cacheCounter("engine", "miss", "")
	engineCacheEviction = cacheCounter("engine", "eviction", "")

	// Which state representation each run took (see Run).
	mixRunsFactored = telemetry.Default().Counter("qfarith_mixture_runs_total", telemetry.L("state", "factored"))
	mixRunsDense    = telemetry.Default().Counter("qfarith_mixture_runs_total", telemetry.L("state", "dense"))
)

// TrajectoryBackend evaluates point specs with the stratified Pauli
// trajectory mixture engine (internal/noise): the no-error stratum is
// exact and the conditional (≥1 error) remainder is Monte Carlo over
// spec.Trajectories samples. It is the default backend and the one that
// reproduces the paper's per-shot noise semantics. Runs whose input
// spans few values of the circuit's key wires go through
// noise.MixtureFactoredInto on live blocks; the rest through the dense
// noise.MixtureInto.
//
// The backend caches noise engines per (circuit, model) pair in an LRU
// of maxCachedEngines entries, so the per-circuit precomputation (error
// probabilities, first-error CDF, fused program) is paid once per sweep
// point rather than once per instance, while the cache stays bounded.
type TrajectoryBackend struct {
	mu        sync.Mutex
	engines   map[engineKey]*list.Element
	order     *list.List // front = most recently used
	hits      int
	misses    int
	evictions int
}

type engineKey struct {
	res   *transpile.Result
	model noise.Model
}

type engineEntry struct {
	key    engineKey
	engine *noise.Engine
}

// NewTrajectoryBackend returns a trajectory backend with an empty
// engine cache.
func NewTrajectoryBackend() *TrajectoryBackend {
	return &TrajectoryBackend{
		engines: make(map[engineKey]*list.Element),
		order:   list.New(),
	}
}

// Name implements Backend.
func (t *TrajectoryBackend) Name() string { return "trajectory" }

// engine returns the cached trajectory engine for (res, model),
// building it on first use and evicting the least recently used entry
// once the cache exceeds maxCachedEngines.
func (t *TrajectoryBackend) engine(res *transpile.Result, model noise.Model) *noise.Engine {
	key := engineKey{res: res, model: model}
	t.mu.Lock()
	if el, ok := t.engines[key]; ok {
		t.order.MoveToFront(el)
		t.hits++
		e := el.Value.(*engineEntry).engine
		t.mu.Unlock()
		engineCacheHit.Inc()
		return e
	}
	t.misses++
	t.mu.Unlock()
	engineCacheMiss.Inc()
	// Build outside the lock: engine construction walks the whole
	// circuit, and concurrent Run calls for other keys shouldn't stall
	// behind it. A racing build for the same key just loses the insert.
	e := noise.NewEngine(res, model)
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.engines[key]; ok {
		t.order.MoveToFront(el)
		return el.Value.(*engineEntry).engine
	}
	t.engines[key] = t.order.PushFront(&engineEntry{key: key, engine: e})
	if t.order.Len() > maxCachedEngines {
		oldest := t.order.Back()
		t.order.Remove(oldest)
		delete(t.engines, oldest.Value.(*engineEntry).key)
		t.evictions++
		engineCacheEviction.Inc()
	}
	return e
}

// EngineCacheStats reports the engine cache's hit, miss, and eviction
// counts.
func (t *TrajectoryBackend) EngineCacheStats() (hits, misses, evictions int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hits, t.misses, t.evictions
}

// EngineCacheLen returns how many engines the cache currently holds.
func (t *TrajectoryBackend) EngineCacheLen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.order.Len()
}

// Run implements Backend. The RNG stream is fully determined by
// (Seed1, Seed2), so equal specs give bit-identical distributions
// regardless of scheduling or engine. The states are pooled; only the
// returned distributions are freshly allocated.
func (t *TrajectoryBackend) Run(ctx context.Context, spec PointSpec) (Distribution, Diagnostics, error) {
	if err := spec.validate(); err != nil {
		return nil, Diagnostics{}, err
	}
	if err := ctx.Err(); err != nil {
		return nil, Diagnostics{}, err
	}
	engine := t.engine(spec.Circuit, spec.Model)
	dist := make(Distribution, 1<<uint(len(spec.Measure)))
	ideal := make(Distribution, len(dist))
	rng := rand.New(rand.NewPCG(spec.Seed1, spec.Seed2))
	opts := noise.MixtureOpts{
		Trajectories: spec.Trajectories,
		Measure:      spec.Measure,
		IdealOut:     ideal,
	}
	if fs := spec.prepareBlocks(engine); fs != nil {
		defer sim.PutBlocks(fs)
		engine.MixtureFactoredInto(dist, fs, opts, rng)
		mixRunsFactored.Inc()
	} else {
		st := sim.GetScratchState(spec.Circuit.NumQubits)
		defer sim.PutScratchState(st)
		spec.prepare(st)
		engine.MixtureInto(dist, st, opts, rng)
		mixRunsDense.Inc()
	}
	diag := Diagnostics{
		Backend:        t.Name(),
		NoErrorProb:    engine.NoErrorProb(),
		ExpectedErrors: engine.ExpectedErrors(),
		Ideal:          ideal,
	}
	return dist, diag, nil
}

// EngineCacheStatser is implemented by backends that expose engine-LRU
// statistics (reporting layers print these without depending on the
// concrete backend type).
type EngineCacheStatser interface {
	EngineCacheStats() (hits, misses, evictions int)
	EngineCacheLen() int
}

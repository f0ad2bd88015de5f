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
// spans few values of the circuit's key qubits go through
// noise.MixtureFactoredInto on live blocks; the rest through
// noise.MixtureBatchInto, batched at the configured lane count, which
// falls back to the scalar path for one lane, one trajectory or a
// noiseless model.
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
	// batch is the configured lane count; 0 selects the automatic
	// cache-sized width (sim.DefaultBatchLanes) per circuit.
	batch int
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

// SetBatchLanes implements BatchSizer: lanes > 0 fixes the number of
// trajectories simulated per structure-of-arrays batch (1 selects the
// scalar engine), 0 restores the per-circuit automatic width
// sim.DefaultBatchLanes. Call it before the backend runs specs.
func (t *TrajectoryBackend) SetBatchLanes(lanes int) {
	t.batch = max(lanes, 0)
}

// Run implements Backend. The RNG stream is fully determined by
// (Seed1, Seed2), so equal specs give bit-identical distributions
// regardless of scheduling or batch width. The statevector and batch
// lanes are pooled; only the returned distributions are freshly
// allocated.
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
		n := spec.Circuit.NumQubits
		batch := t.batch
		if batch == 0 {
			batch = sim.DefaultBatchLanes(n)
		}
		st := sim.GetScratchState(n)
		defer sim.PutScratchState(st)
		spec.prepare(st)
		engine.MixtureBatchInto(dist, st, opts, rng, batch)
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

// BatchSizer is implemented by backends whose trajectory batch width is
// configurable (the -batch CLI flag).
type BatchSizer interface {
	// SetBatchLanes fixes the number of trajectories simulated per
	// batch; 0 selects the backend's automatic sizing.
	SetBatchLanes(lanes int)
}

// EngineCacheStatser is implemented by backends that expose engine-LRU
// statistics (reporting layers print these without depending on the
// concrete backend type).
type EngineCacheStatser interface {
	EngineCacheStats() (hits, misses, evictions int)
	EngineCacheLen() int
}

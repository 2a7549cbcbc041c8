// Package core implements the package recommender system of the paper: a
// linear utility over aggregate package features whose weights are
// uncertain (a Gaussian-mixture prior), learned through implicit feedback
// (clicks on recommended packages), with constrained sampling standing in
// for the closed-form posterior and Top-k-Pkg generating recommendations
// under a configurable ranking semantics.
//
// Typical use:
//
//	eng, err := core.New(core.Config{Items: items, Profile: profile})
//	slate, err := eng.Recommend()            // top packages + exploration
//	err = eng.Click(slate.All[2], slate.All) // user clicked the third
//	slate, err = eng.Recommend()             // now personalized
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"toppkg/internal/catalog"
	"toppkg/internal/feature"
	"toppkg/internal/gaussmix"
	"toppkg/internal/maintain"
	"toppkg/internal/pkgspace"
	"toppkg/internal/prefgraph"
	"toppkg/internal/ranking"
	"toppkg/internal/sampling"
	"toppkg/internal/search"
	"toppkg/internal/topk"
)

// SamplerKind selects the constrained sampling strategy (§3).
type SamplerKind string

// Sampling strategies.
const (
	SamplerRejection  SamplerKind = "rejection"
	SamplerImportance SamplerKind = "importance"
	SamplerMCMC       SamplerKind = "mcmc"
)

// CheckerKind selects the sample-maintenance strategy (§3.4).
type CheckerKind string

// Maintenance strategies.
const (
	CheckerNaive  CheckerKind = "naive"
	CheckerTA     CheckerKind = "ta"
	CheckerHybrid CheckerKind = "hybrid"
)

// Config configures an Engine. Zero values select the paper's defaults.
type Config struct {
	// Items is the item set T (required).
	Items []feature.Item
	// Profile is the aggregate feature profile V (required).
	Profile *feature.Profile
	// MaxPackageSize is φ (default 5).
	MaxPackageSize int
	// K is the number of recommended packages per slate (default 5).
	K int
	// RandomCount is the number of exploration packages added to each slate
	// (default K; the paper shows 5 recommended + 5 random).
	RandomCount int
	// Semantics is the ranking semantics (default EXP).
	Semantics ranking.Semantics
	// Sigma is TKP's σ (default K).
	Sigma int
	// Sampler selects the sampling strategy (default mcmc).
	Sampler SamplerKind
	// SampleCount is the size of the weight-vector sample pool
	// (default 1000).
	SampleCount int
	// Prior overrides the weight prior; by default a single Gaussian
	// centered at the origin with std 0.5 per dimension
	// (PriorComponents selects a random mixture instead).
	Prior *gaussmix.Mixture
	// PriorComponents sets the number of mixture components of the default
	// prior (default 1).
	PriorComponents int
	// Psi is the feedback noise model of §7: the probability any single
	// feedback is correct. Default 1 (noise-free).
	Psi float64
	// Checker selects the maintenance strategy (default hybrid).
	Checker CheckerKind
	// Gamma is the hybrid checker's γ (default 0.025).
	Gamma float64
	// DisableReduction turns off transitive reduction of the preference
	// graph (§3.3); on by default since it only removes redundant checks.
	DisableReduction bool
	// Search tunes the per-sample Top-k-Pkg runs (K is set internally).
	Search search.Options
	// Parallelism is the worker count for per-sample searches during
	// ranking (0/1 sequential, negative = GOMAXPROCS).
	Parallelism int
	// SearchCacheSize bounds the per-catalogue Top-k-Pkg result cache
	// shared by every engine derived from one Shared (0 selects
	// ranking.DefaultCacheSize; negative disables caching). Caching is
	// sound because a per-sample result depends only on the immutable
	// index, the weight vector, and the search options — feedback changes
	// which samples are in the pool, not what any vector's top-k is — so
	// samples surviving a feedback round reuse last round's packages.
	SearchCacheSize int
	// WeightQuantum quantizes sample weight vectors before the per-sample
	// search (see ranking.Options.Quantum). 0 keeps slates bit-identical
	// to the unbatched path; > 0 trades exactness for more dedup/cache
	// hits.
	WeightQuantum float64
	// Seed seeds the engine's random stream (default 1).
	Seed int64
	// MCMC / importance tuning; zero values take the samplers' defaults.
	MCMCLMax           float64
	MCMCThin           int
	MCMCBurnIn         int
	ImportanceGridRes  int
	ImportanceStd      float64
	ImportanceQuadtree bool
}

// Stats reports the engine's cumulative activity.
type Stats struct {
	// Feedback is the number of pairwise preferences recorded.
	Feedback int
	// ConstraintsActive is the size of the reduced constraint set in use.
	ConstraintsActive int
	// CyclesSkipped counts preferences dropped because they contradicted
	// earlier feedback.
	CyclesSkipped int
	// SamplesReplaced counts pool samples invalidated by feedback and
	// redrawn (§3.4).
	SamplesReplaced int
	// ReplacementFailures counts feedback events whose violating samples
	// could not be replaced because the valid region has (nearly) vanished
	// — e.g. inconsistent feedback from a noisy user on a noise-free
	// engine. The stale samples are kept; configure Psi < 1 to tolerate
	// noise instead (§7).
	ReplacementFailures int
	// InitialSampleFallbacks counts pool draws that exhausted the sampler's
	// attempt budget — the accumulated feedback admits (almost) no valid
	// weight vector, e.g. after catalogue churn re-vectorized old
	// preferences into contradiction — and were completed with
	// constraint-free prior draws instead of failing the recommend.
	InitialSampleFallbacks int
	// MaintenanceWork accumulates the checker's sample examinations.
	MaintenanceWork int
	// SampleAttempts accumulates raw sampler draws.
	SampleAttempts int
	// RestoreDroppedItems counts item occurrences silently removed from
	// restored preferences because the item had vanished from the catalogue
	// between snapshot and restore; RestoreDroppedPrefs counts preferences
	// dropped entirely (a side emptied out, both sides collapsed to the
	// same package, or the remapped preference contradicted a surviving
	// one). Both accumulate across a session's restores — nonzero values
	// are silent preference loss an operator should be able to see.
	RestoreDroppedItems int
	RestoreDroppedPrefs int
	// RankSamples, RankDistinct, RankCacheHits, and RankSearches
	// accumulate the Recommend pipeline's batching counters across rounds:
	// weight vectors ranked, distinct vectors left after
	// canonicalization/dedup, distinct vectors served from the shared
	// result cache, and Top-k-Pkg runs actually executed. The dedup ratio
	// is (RankSamples−RankDistinct)/RankSamples; the cache hit rate is
	// RankCacheHits/RankDistinct.
	RankSamples   int
	RankDistinct  int
	RankCacheHits int
	RankSearches  int
}

// Slate is one screenful of packages presented to the user: the system's
// current best guesses (exploitation) plus random packages (exploration),
// per §2.2.
type Slate struct {
	// Recommended is the ranked top-k under the configured semantics.
	Recommended []ranking.Ranked
	// Random is the exploration tail.
	Random []pkgspace.Package
	// All is every distinct package shown, recommended first.
	All []pkgspace.Package
	// Epoch identifies the catalogue epoch the slate was computed against
	// (0 for a static catalogue); Space is that epoch's feature space, so
	// callers can resolve item IDs and names consistently with the slate
	// even if the live catalogue swaps right after Recommend returns.
	Epoch uint64
	Space *feature.Space
}

// Engine is the package recommender. It is not safe for concurrent use.
type Engine struct {
	cfg   Config
	sh    *Shared // catalogue-wide state: epochs + shared result cache
	rng   *rand.Rand
	graph *prefgraph.Graph
	pool  *maintain.Pool
	stats Stats
	// lastDropItems/lastDropPrefs are the drop counts of the most recent
	// Restore on this engine (not cumulative — see Stats for that), so
	// callers reporting a single restore's loss need no arithmetic against
	// the snapshot's own counters.
	lastDropItems int
	lastDropPrefs int
	// fb is the identity view of the most recent slate this engine served:
	// that slate's epoch ID, feature space, and stable↔dense ID mapping.
	// Clicks and pairwise feedback refer to packages the user was shown,
	// so their item IDs are dense positions in — and their preference
	// vectors must be computed from, and their stable node identity
	// resolved through — that slate's epoch, not whatever the catalogue
	// has swapped to since. Only the space and ID map are retained (not
	// the whole epoch) so an idle session does not pin a retired epoch's
	// search index in memory. Nil until the first Recommend (feedback then
	// resolves the current epoch, the pre-live behavior); not persisted —
	// Restore re-pins the restore-time epoch (see Snapshot).
	fb *fbView
}

// fbView is the lightweight slice of an epoch that feedback resolution
// needs: dense item IDs are interpreted in space, and translated to stable
// catalogue identity through ids (nil for a static catalogue, where dense
// positions are the stable keys).
type fbView struct {
	id    uint64
	space *feature.Space
	ids   *catalog.IDMap
	// idh fingerprints the stable→dense assignment (identity for a
	// static catalogue): combined with space.Hash it identifies both the
	// vector geometry and the identity labeling of learned state.
	idh uint64
}

// stableIDs translates a package's dense member IDs into stable catalogue
// IDs. With a nil map (static catalogue) dense positions are the stable
// identity.
func (v fbView) stableIDs(p pkgspace.Package) []int {
	if v.ids == nil {
		return append([]int(nil), p.IDs...)
	}
	out := make([]int, len(p.IDs))
	for i, d := range p.IDs {
		out[i] = v.ids.StableID(d)
	}
	return out
}

// stablePkg is the package's stable-ID identity — the key learned state is
// stored under, immune to dense-ID remaps across epochs.
func (v fbView) stablePkg(p pkgspace.Package) pkgspace.Package {
	return pkgspace.New(v.stableIDs(p)...)
}

// Shared is the catalogue-wide half of an engine: the normalized
// configuration plus the feature space and search index of the catalogue's
// current epoch. Many engines (one per user session) derive from one
// Shared via NewEngine, skipping the O(n log n) index construction that
// dominates core.New. A Shared is safe for concurrent use; the engines it
// produces are independent and individually single-threaded.
//
// A Shared comes in two flavors. NewShared freezes one epoch at
// construction — the original immutable-catalogue behavior. NewLiveShared
// wraps a catalog.Catalog instead: every Recommend resolves the
// catalogue's current epoch with one atomic load, so mutations show up in
// the next request without any engine or manager restart, and a request in
// flight keeps the coherent epoch it started with.
type Shared struct {
	cfg   Config
	space *feature.Space // static epoch (nil when cat != nil)
	ix    *search.Index
	cat   *catalog.Catalog // live catalogue (nil for static)
	cache *ranking.Cache
	// idh is the static epoch's identity stable→dense hash (stable ID i
	// IS dense position i); unused when cat != nil.
	idh uint64
}

// epochView is one resolved, coherent catalogue epoch: everything a single
// request needs. For a static Shared the ID is always 0 and ids is nil
// (dense positions are the stable identity).
type epochView struct {
	id    uint64
	space *feature.Space
	ix    *search.Index
	ids   *catalog.IDMap
	idh   uint64
}

// epoch resolves the current epoch: wait-free, never blocks on a rebuild.
func (sh *Shared) epoch() epochView {
	if sh.cat != nil {
		ep := sh.cat.Current()
		return epochView{id: ep.ID, space: ep.Space, ix: ep.Index, ids: ep.IDs(), idh: ep.IDs().Hash()}
	}
	return epochView{id: 0, space: sh.space, ix: sh.ix, idh: sh.idh}
}

// view is the feedback-identity slice of the epoch.
func (ep epochView) view() fbView {
	return fbView{id: ep.id, space: ep.space, ids: ep.ids, idh: ep.idh}
}

// normalizeConfig applies the paper's defaults and validates everything
// that does not depend on the item set.
func normalizeConfig(cfg Config) (Config, error) {
	if cfg.Profile == nil {
		return cfg, fmt.Errorf("core: Config.Profile is required")
	}
	if cfg.MaxPackageSize == 0 {
		cfg.MaxPackageSize = 5
	}
	if cfg.K == 0 {
		cfg.K = 5
	}
	if cfg.RandomCount == 0 {
		cfg.RandomCount = cfg.K
	}
	if cfg.Sigma == 0 {
		cfg.Sigma = cfg.K
	}
	if cfg.Sampler == "" {
		cfg.Sampler = SamplerMCMC
	}
	if cfg.SampleCount == 0 {
		cfg.SampleCount = 1000
	}
	if cfg.PriorComponents == 0 {
		cfg.PriorComponents = 1
	}
	if cfg.Psi == 0 {
		cfg.Psi = 1
	}
	if cfg.Checker == "" {
		cfg.Checker = CheckerHybrid
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Prior != nil && cfg.Prior.Dims() != cfg.Profile.Dims() {
		return cfg, fmt.Errorf("core: prior has %d dims, profile has %d", cfg.Prior.Dims(), cfg.Profile.Dims())
	}
	return cfg, nil
}

// newCache builds the shared result cache cfg selects (nil = disabled).
func newCache(cfg Config) *ranking.Cache {
	if cfg.SearchCacheSize < 0 {
		return nil
	}
	return ranking.NewCache(cfg.SearchCacheSize)
}

// NewShared validates cfg, applies the paper's defaults, and builds the
// feature space and search index once — a static catalogue frozen at
// process start (epoch 0). Use NewLiveShared for a mutable catalogue.
func NewShared(cfg Config) (*Shared, error) {
	cfg, err := normalizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	space, err := feature.NewSpace(cfg.Items, cfg.Profile, cfg.MaxPackageSize)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// A static catalogue's stable identity is its dense positions; hashing
	// the identity assignment here lets static and live deployments with
	// the same effective mapping agree on snapshot identity hashes.
	identity := make([]int, len(space.Items))
	for i := range identity {
		identity[i] = i
	}
	return &Shared{
		cfg:   cfg,
		space: space,
		ix:    search.NewIndex(space),
		cache: newCache(cfg),
		idh:   catalog.IDMapHash(identity),
	}, nil
}

// NewLiveShared builds a Shared over a mutable catalogue: engines resolve
// the catalogue's current epoch per Recommend instead of holding a frozen
// index. The catalogue owns the profile and φ, so cfg.Profile,
// cfg.MaxPackageSize, and cfg.Items are taken from cat (any values set on
// cfg for those fields are ignored). Every epoch swap invalidates the
// shared Top-k-Pkg result cache. Results are additionally keyed by epoch
// ID, so even a Recommend racing the swap can never mix epochs: its late
// Put lands under the superseded epoch's key, which only requests pinned
// to that epoch ask for.
func NewLiveShared(cfg Config, cat *catalog.Catalog) (*Shared, error) {
	if cat == nil {
		return nil, fmt.Errorf("core: NewLiveShared requires a catalogue")
	}
	cfg.Profile = cat.Profile()
	cfg.MaxPackageSize = cat.MaxPackageSize()
	cfg.Items = nil
	cfg, err := normalizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	sh := &Shared{cfg: cfg, cat: cat, cache: newCache(cfg)}
	if sh.cache != nil {
		cat.Subscribe(func(*catalog.Epoch, *catalog.ChangeSet) { sh.cache.Invalidate() })
	}
	return sh, nil
}

// Space exposes the current epoch's feature space.
func (sh *Shared) Space() *feature.Space { return sh.epoch().space }

// Index exposes the current epoch's search index (safe for concurrent TopK
// runs; immutable once published).
func (sh *Shared) Index() *search.Index { return sh.epoch().ix }

// Epoch reports the current catalogue epoch ID (always 0 for a static
// Shared; live epochs start at 1).
func (sh *Shared) Epoch() uint64 { return sh.epoch().id }

// EpochInfo reports one coherent (epoch ID, item count) pair — resolved
// from a single epoch, so a swap between two separate Epoch()/Space()
// calls cannot pair an ID with another epoch's item count.
func (sh *Shared) EpochInfo() (id uint64, items int) {
	ep := sh.epoch()
	return ep.id, len(ep.space.Items)
}

// EpochIdentity reports the current epoch's content fingerprints in one
// coherent read: the epoch ID, item count, the stable→dense assignment
// hash (catalog.IDMapHash over the epoch's ID map), and the feature-space
// geometry hash. Two processes reporting equal idmap/space hashes serve
// recommendations over identical catalogue content whatever their
// per-process epoch counters say — the cross-shard convergence check in
// the sharded serving tier compares exactly these.
func (sh *Shared) EpochIdentity() (id uint64, items int, idmapHash, spaceHash uint64) {
	ep := sh.epoch()
	return ep.id, len(ep.space.Items), ep.idh, ep.space.Hash()
}

// Catalog exposes the live catalogue behind this Shared, nil when the
// catalogue is static.
func (sh *Shared) Catalog() *catalog.Catalog { return sh.cat }

// SearchCache exposes the shared per-catalogue result cache (nil when the
// config disabled caching). Safe for concurrent use; see ranking.Cache.
func (sh *Shared) SearchCache() *ranking.Cache { return sh.cache }

// InvalidateSearchCache drops every cached Top-k-Pkg result and advances
// the cache epoch. Results depend only on the immutable index, so the only
// reason to call this is replacing the catalogue behind a rebuilt Shared's
// back — it exists as the safety valve for such surgery and for tests.
func (sh *Shared) InvalidateSearchCache() {
	if sh.cache != nil {
		sh.cache.Invalidate()
	}
}

// NewEngine derives an independent engine over the shared space and index:
// its own random stream, preference graph, and sample pool. seed
// differentiates sessions; 0 falls back to the shared config's seed, so
// Shared{cfg}.NewEngine(0) behaves exactly like New(cfg).
func (sh *Shared) NewEngine(seed int64) (*Engine, error) {
	cfg := sh.cfg
	if seed != 0 {
		cfg.Seed = seed
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Prior == nil {
		cfg.Prior = gaussmix.DefaultPrior(cfg.Profile.Dims(), cfg.PriorComponents, rng)
	}
	if cfg.Prior.Dims() != cfg.Profile.Dims() {
		return nil, fmt.Errorf("core: prior has %d dims, profile has %d", cfg.Prior.Dims(), cfg.Profile.Dims())
	}
	return &Engine{
		cfg:   cfg,
		sh:    sh,
		rng:   rng,
		graph: prefgraph.New(),
	}, nil
}

// New validates the configuration and builds an engine. Sampling is lazy:
// the pool is drawn on the first Recommend. Callers creating many engines
// over one catalogue should build a Shared once and use NewEngine instead.
func New(cfg Config) (*Engine, error) {
	sh, err := NewShared(cfg)
	if err != nil {
		return nil, err
	}
	return sh.NewEngine(0)
}

// Space exposes the current epoch's feature space (items, profile,
// normalizer). With a live catalogue, successive calls may observe
// different epochs; a Slate's Space field pins the epoch a slate used.
func (e *Engine) Space() *feature.Space { return e.sh.epoch().space }

// Index exposes the current epoch's search index for direct Top-k-Pkg
// runs.
func (e *Engine) Index() *search.Index { return e.sh.epoch().ix }

// Epoch reports the catalogue epoch the engine would serve from right now.
func (e *Engine) Epoch() uint64 { return e.sh.epoch().id }

// Stats returns the cumulative counters.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.ConstraintsActive = len(e.constraints())
	return s
}

// FeedbackCount returns the number of recorded pairwise preferences
// without recomputing the reduced constraint set (unlike Stats).
func (e *Engine) FeedbackCount() int { return e.stats.Feedback }

// RestoreDrops reports the cumulative restore-time loss counters (items
// dropped from remapped preferences, preferences dropped entirely) without
// recomputing the reduced constraint set (unlike Stats).
func (e *Engine) RestoreDrops() (items, prefs int) {
	return e.stats.RestoreDroppedItems, e.stats.RestoreDroppedPrefs
}

// LastRestoreDrops reports what the most recent Restore on this engine
// dropped — zero if it never restored. Unlike RestoreDrops this is not
// cumulative across the session's history, so operators reporting one
// restore's loss read it directly.
func (e *Engine) LastRestoreDrops() (items, prefs int) {
	return e.lastDropItems, e.lastDropPrefs
}

// Graph exposes the preference DAG (read-mostly; use Feedback to mutate).
func (e *Engine) Graph() *prefgraph.Graph { return e.graph }

// FeedbackSpace is the space feedback package IDs are interpreted in: the
// epoch of the engine's most recent slate, falling back to the current
// epoch before any Recommend. Callers validating click/feedback payloads
// must use it rather than Space(), or a catalogue swap between a slate and
// its click would misread (or reject) the slate's item IDs.
func (e *Engine) FeedbackSpace() *feature.Space {
	return e.feedbackView().space
}

// FeedbackEpoch is the catalogue epoch feedback identity currently
// resolves against: the most recent slate's (or restore's) epoch.
func (e *Engine) FeedbackEpoch() uint64 { return e.feedbackView().id }

// feedbackView resolves the identity view feedback is interpreted in.
func (e *Engine) feedbackView() fbView {
	if e.fb == nil {
		// Memoize the fallback: a click arriving before this incarnation's
		// first Recommend (e.g. right after an eviction restore) must
		// validate and vectorize winner and loser against ONE epoch, not
		// re-resolve per call with a swap possibly landing in between.
		v := e.sh.epoch().view()
		e.fb = &v
	}
	return *e.fb
}

// PackageVector computes the normalized aggregate vector of a package
// against the feedback space (see FeedbackSpace).
func (e *Engine) PackageVector(p pkgspace.Package) ([]float64, error) {
	sp := e.FeedbackSpace()
	if err := pkgspace.ValidateIDs(sp, p); err != nil {
		return nil, err
	}
	return pkgspace.Vector(sp, p), nil
}

func (e *Engine) constraints() []prefgraph.Constraint {
	return e.graph.Constraints(!e.cfg.DisableReduction)
}

// Sampler builds the configured sampling strategy over the current
// feedback constraints.
func (e *Engine) Sampler() (sampling.Sampler, error) {
	v := sampling.NewValidator(e.cfg.Profile.Dims(), e.constraints())
	v.Psi = e.cfg.Psi
	switch e.cfg.Sampler {
	case SamplerRejection:
		return &sampling.Rejection{Prior: e.cfg.Prior, V: v}, nil
	case SamplerImportance:
		return &sampling.Importance{
			Prior:       e.cfg.Prior,
			V:           v,
			GridRes:     e.cfg.ImportanceGridRes,
			ProposalStd: e.cfg.ImportanceStd,
			UseQuadtree: e.cfg.ImportanceQuadtree,
		}, nil
	case SamplerMCMC:
		return &sampling.MCMC{
			Prior:  e.cfg.Prior,
			V:      v,
			LMax:   e.cfg.MCMCLMax,
			Thin:   e.cfg.MCMCThin,
			BurnIn: e.cfg.MCMCBurnIn,
		}, nil
	}
	return nil, fmt.Errorf("core: unknown sampler %q", e.cfg.Sampler)
}

func (e *Engine) newChecker(p *topk.Pool) maintain.Checker {
	switch e.cfg.Checker {
	case CheckerNaive:
		return &maintain.Naive{P: p}
	case CheckerTA:
		return &maintain.TA{P: p}
	default:
		return &maintain.Hybrid{P: p, Gamma: e.cfg.Gamma}
	}
}

// ensureSamples draws the initial pool if none exists yet.
func (e *Engine) ensureSamples() error {
	if e.pool != nil {
		return nil
	}
	s, err := e.Sampler()
	if err != nil {
		return err
	}
	res, err := s.Sample(e.rng, e.cfg.SampleCount)
	e.stats.SampleAttempts += res.Attempts
	if err != nil {
		if !errors.Is(err, sampling.ErrTooManyRejections) {
			return fmt.Errorf("core: initial sampling: %w", err)
		}
		// The feedback set leaves (almost) no valid weight vectors — e.g.
		// preferences re-vectorized across catalogue epochs now contradict
		// each other, or a noisy user answered inconsistently. Mirror the
		// maintenance path in applyConstraint: degrade rather than fail
		// the interaction. Keep whatever the sampler did accept and top
		// the pool up with prior draws — the §7 noise model's limit: under
		// total inconsistency the posterior collapses to the prior.
		e.stats.InitialSampleFallbacks++
		res.Samples = e.fillFromPrior(res.Samples)
	}
	e.pool = maintain.NewPool(res.Samples)
	e.pool.NewChecker = e.newChecker
	return nil
}

// fillFromPrior tops samples up to SampleCount with constraint-free prior
// draws (box-checked, clamped as a last resort so the fill always
// terminates).
func (e *Engine) fillFromPrior(samples []sampling.Sample) []sampling.Sample {
	box := sampling.NewValidator(e.cfg.Profile.Dims(), nil)
	w := make([]float64, e.cfg.Profile.Dims())
	attempts := 0
	for len(samples) < e.cfg.SampleCount {
		e.cfg.Prior.SampleInto(e.rng, w)
		e.stats.SampleAttempts++
		attempts++
		if !box.InBox(w) {
			if attempts < 50*e.cfg.SampleCount {
				continue
			}
			for i := range w {
				w[i] = math.Max(-1, math.Min(1, w[i]))
			}
		}
		samples = append(samples, sampling.Sample{W: append([]float64(nil), w...), Q: 1})
	}
	return samples
}

// Samples returns the current weight-vector pool, drawing it if needed.
func (e *Engine) Samples() ([]sampling.Sample, error) {
	if err := e.ensureSamples(); err != nil {
		return nil, err
	}
	return e.pool.Samples, nil
}

// InvalidateSamples discards the pool so the next Recommend redraws it from
// scratch (mainly for experiments comparing maintenance to regeneration).
func (e *Engine) InvalidateSamples() { e.pool = nil }

// Recommend assembles a slate: the top-K packages under the configured
// semantics plus RandomCount random exploration packages. Per-sample
// searches run through the batched pipeline — duplicate weight vectors are
// searched once, vectors seen in an earlier round are served from the
// shared result cache, and the remainder is sharded across
// Config.Parallelism workers (see Stats' Rank* counters).
//
// The catalogue epoch is resolved once at entry and pinned for the whole
// call: ranking, cache keys, and the exploration tail all use the same
// coherent snapshot even if the live catalogue swaps mid-request. The
// slate records the epoch (and its space) it was computed against.
func (e *Engine) Recommend() (*Slate, error) {
	if err := e.ensureSamples(); err != nil {
		return nil, err
	}
	ep := e.sh.epoch()
	var m ranking.Metrics
	ranked, err := ranking.Rank(ep.ix, e.pool.Samples, e.cfg.Semantics, ranking.Options{
		K:           e.cfg.K,
		Sigma:       e.cfg.Sigma,
		Parallelism: e.cfg.Parallelism,
		Search:      e.cfg.Search,
		Quantum:     e.cfg.WeightQuantum,
		Cache:       e.sh.cache,
		Epoch:       ep.id,
		Metrics:     &m,
	})
	e.stats.RankSamples += m.Samples
	e.stats.RankDistinct += m.Distinct
	e.stats.RankCacheHits += m.CacheHits
	e.stats.RankSearches += m.Searches
	if err != nil {
		return nil, fmt.Errorf("core: ranking: %w", err)
	}
	fv := ep.view()
	e.fb = &fv // feedback on this slate resolves against its epoch
	slate := &Slate{Recommended: ranked, Epoch: ep.id, Space: ep.space}
	seen := make(map[string]bool, len(ranked)+e.cfg.RandomCount)
	for _, r := range ranked {
		slate.All = append(slate.All, r.Pkg)
		seen[r.Pkg.Signature()] = true
	}
	for tries := 0; len(slate.Random) < e.cfg.RandomCount && tries < 50*e.cfg.RandomCount; tries++ {
		p := e.randomPackage(ep.space)
		if sig := p.Signature(); !seen[sig] {
			seen[sig] = true
			slate.Random = append(slate.Random, p)
			slate.All = append(slate.All, p)
		}
	}
	return slate, nil
}

// RandomPackage draws a uniformly random size in [1, φ] and that many
// distinct random items from the current epoch — the exploration packages
// of §2.2.
func (e *Engine) RandomPackage() pkgspace.Package {
	return e.randomPackage(e.sh.epoch().space)
}

// randomPackage draws the exploration package against a pinned epoch
// space, so one Recommend never mixes item universes.
func (e *Engine) randomPackage(sp *feature.Space) pkgspace.Package {
	size := 1 + e.rng.Intn(e.cfg.MaxPackageSize)
	if size > len(sp.Items) {
		size = len(sp.Items)
	}
	picked := make(map[int]bool, size)
	ids := make([]int, 0, size)
	for len(ids) < size {
		id := e.rng.Intn(len(sp.Items))
		if !picked[id] {
			picked[id] = true
			ids = append(ids, id)
		}
	}
	return pkgspace.New(ids...)
}

// Click records implicit feedback: the user clicked chosen out of shown,
// yielding a pairwise preference over every other shown package (§3.3).
// Preferences contradicting earlier feedback are skipped and counted in
// Stats.CyclesSkipped, mirroring the paper's cycle resolution.
func (e *Engine) Click(chosen pkgspace.Package, shown []pkgspace.Package) error {
	for _, p := range shown {
		if p.Signature() == chosen.Signature() {
			continue
		}
		if err := e.Feedback(chosen, p); err != nil {
			if errors.Is(err, prefgraph.ErrCycle) {
				e.stats.CyclesSkipped++
				continue
			}
			return err
		}
	}
	return nil
}

// Feedback records a single pairwise preference winner ≻ loser, updates the
// preference DAG, and maintains the sample pool: samples violating the new
// constraint are replaced by fresh draws from the feedback-aware sampler
// (§3.4).
//
// Dense item IDs are interpreted in — and preference vectors computed from
// — the feedback view (the most recent slate's epoch), but the preference
// is stored in the graph under the packages' stable catalogue identity: a
// package re-encountered after a dense-ID remap is the same node, and one
// first seen under an older epoch has its vector refreshed from the
// feedback view's space rather than reusing the stale geometry.
func (e *Engine) Feedback(winner, loser pkgspace.Package) error {
	fv := e.feedbackView()
	wv, err := e.PackageVector(winner)
	if err != nil {
		return err
	}
	lv, err := e.PackageVector(loser)
	if err != nil {
		return err
	}
	sw, sl := fv.stablePkg(winner), fv.stablePkg(loser)
	refreshed, err := e.graph.AddPreferenceAt(fv.id, sw, wv, sl, lv)
	if refreshed {
		// A known package resurfaced under a newer epoch and its vector
		// was refreshed, which rewrote the constraint of every edge
		// touching it — not just the edge added here. Incremental
		// maintenance against the one new constraint would leave samples
		// violating the rewritten ones, so the pool is redrawn under the
		// full rebuilt constraint set instead (mirroring Restore's
		// cross-epoch rule). This holds even when the edge itself is
		// rejected as a cycle or duplicate: the vector update has already
		// happened by then.
		e.pool = nil
	}
	if err != nil {
		return err
	}
	e.stats.Feedback++
	if e.pool == nil {
		return nil // pool will be (re)drawn under the full constraint set
	}
	diff := make([]float64, len(wv))
	for i := range diff {
		diff[i] = wv[i] - lv[i]
	}
	c := prefgraph.Constraint{Winner: sw, Loser: sl, Diff: diff}
	s, err := e.Sampler()
	if err != nil {
		return err
	}
	replaced, work, err := e.pool.Apply(c, s, e.rng)
	e.stats.MaintenanceWork += work
	e.stats.SamplesReplaced += replaced
	if err != nil {
		if errors.Is(err, sampling.ErrTooManyRejections) {
			// The feedback set leaves (almost) no valid weight vectors: keep
			// the stale samples rather than fail the interaction. The paper
			// assumes consistent feedback (§2.1); Psi < 1 is the principled
			// alternative under noise (§7).
			e.stats.ReplacementFailures++
			return nil
		}
		return fmt.Errorf("core: feedback maintenance: %w", err)
	}
	return nil
}

// TopKForWeights runs Top-k-Pkg for an explicit weight vector — the
// "oracle" entry point when the utility is known rather than elicited. The
// epoch is resolved once for the call.
func (e *Engine) TopKForWeights(w []float64, k int) ([]pkgspace.Scored, error) {
	ep := e.sh.epoch()
	u, err := feature.NewUtility(ep.space.Profile, w)
	if err != nil {
		return nil, err
	}
	so := e.cfg.Search
	so.K = k
	res, err := ep.ix.TopK(u, so)
	if err != nil {
		return nil, err
	}
	return res.Packages, nil
}

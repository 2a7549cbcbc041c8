// Package search implements Top-k-Pkg (paper §4, Algorithms 2–4): finding
// the top-k packages of flexible size ≤ φ for a fixed weight vector,
// without enumerating the exponential package space. Items are consumed
// from per-dimension sorted lists in round-robin order; packages are grown
// incrementally in two queues (expandable Q+ and closed Q−); and the search
// stops as soon as the best utility still reachable (ηup, from the
// upper-exp bound of Algorithm 3) cannot beat the current k-th best (ηlo).
package search

import (
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"toppkg/internal/feature"
	"toppkg/internal/pkgspace"
	"toppkg/internal/skyline"
)

// Options configures one Top-k-Pkg run.
type Options struct {
	// K is the number of packages to return.
	K int
	// ExpandAll disables Algorithm 4's line-3 pruning (only grow a package
	// with an item that strictly improves it). The paper's pruning is a
	// heuristic for profiles with non-monotone marginals (avg, min): a
	// discarded equal-utility subpackage can block a strictly better
	// superset. ExpandAll restores exactness at extra cost; see DESIGN.md.
	ExpandAll bool
	// DisableBoundPrune keeps packages in Q+ even when their upper bound
	// cannot beat the current k-th best. The pruning (sound, and implied by
	// the paper's ηup/ηlo machinery) is on by default; disabling it exists
	// for the ablation benchmarks.
	DisableBoundPrune bool
	// MaxQueue caps the expandable queue Q+. The paper's algorithm keeps
	// every improvable package, which can grow combinatorially before the
	// boundary bound tightens; capping turns the search into a beam over
	// the highest-upper-bound packages. 0 selects DefaultMaxQueue; a
	// negative value removes the cap (exact, possibly exponential). When
	// the cap drops packages, Result.Truncated is set and results are
	// best-effort.
	MaxQueue int
	// MaxAccessed bounds how many distinct items the search draws from the
	// sorted lists (0 = unlimited). The boundary bound can take thousands
	// of accesses to close on conflicting profiles even though the actual
	// top packages were found within the first dozens of items (the §4
	// intuition); a depth budget trades that certification for speed.
	// When the budget stops the search early, Result.Truncated is set.
	MaxAccessed int
	// Candidate, when non-nil, filters which packages may enter the result
	// (the schema predicates of §7). Packages failing it are still expanded,
	// since predicates such as "at least two novels" are not anti-monotone.
	Candidate pkgspace.Predicate
	// Expand, when non-nil, prunes package growth: a package failing it is
	// neither kept nor grown. Use only for anti-monotone predicates (e.g.
	// MaxCount), otherwise results may be incomplete.
	Expand pkgspace.Predicate
	// DisableDominancePrune turns off the skyline head filter. The filter
	// only engages when the utility is monotone for the profile (positive
	// weights on sum/max, negative on min, no weighted avg), and skips a
	// drawn item only when a sound upper bound over every package
	// containing it falls strictly below the current k-th best — exact for
	// uncapped runs; under a Q+ cap the skipped items' children no longer
	// compete for beam slots, so beam results may differ (see DESIGN
	// notes on nextItem). Disabling exists for the ablation benchmarks and
	// the pruned≡unpruned property suite.
	DisableDominancePrune bool
	// DisablePartition turns off sketch-refine partitioned search (see
	// partitioned.go). Like the dominance filter it only engages for
	// monotone utilities with bound pruning on and no predicates; uncapped
	// unbudgeted runs stay bit-identical with it on or off (the sketch
	// bound only prunes strictly-below-the-floor work), while beamed runs
	// refine inside the sketch-selected clusters and may differ from an
	// unpartitioned beam. Disabling exists for ablations and the
	// partitioned≡unpartitioned property suite.
	DisablePartition bool
}

// DefaultMaxQueue is the Q+ cap applied when Options.MaxQueue is zero.
// Exhaustive runs (tests against the brute-force oracle) should pass
// MaxQueue: -1.
const DefaultMaxQueue = 512

// CacheKey encodes the options canonically for result-cache keys: two
// option sets with equal keys produce identical TopK results over the same
// index and utility. ok is false when the options carry predicate
// functions — closures cannot be identified across calls, so their results
// must never be reused from a cache.
func (o Options) CacheKey() (key string, ok bool) {
	if o.Candidate != nil || o.Expand != nil {
		return "", false
	}
	return fmt.Sprintf("k%d;ea%t;bp%t;mq%d;ma%d;dp%t;pt%t",
		o.K, o.ExpandAll, o.DisableBoundPrune, o.MaxQueue, o.MaxAccessed, o.DisableDominancePrune, o.DisablePartition), true
}

// Result is the outcome of a Top-k-Pkg run, with the work counters the
// experiments report.
type Result struct {
	// Packages holds the top-k in descending utility (ties by the
	// deterministic package order).
	Packages []pkgspace.Scored
	// Accessed is the number of distinct items drawn from the sorted lists.
	Accessed int
	// Created is the number of candidate packages materialized.
	Created int
	// Truncated reports that MaxQueue forced dropping expandable packages.
	Truncated bool
	// DomPruned counts drawn items the dominance filter skipped (zero when
	// the filter never engaged).
	DomPruned int
	// SketchSkipped counts items the sketch bound excluded: draws skipped
	// because their cluster cannot beat the sketch floor (uncapped runs),
	// or items left outside the refined subset entirely (beamed runs).
	// Zero when partitioning never engaged.
	SketchSkipped int
	// RefineClustersOpened is the number of distinct clusters the refine
	// phase read (zero when partitioning never engaged).
	RefineClustersOpened int
}

// Index holds the per-entry sorted item lists for a space, so that repeated
// Top-k-Pkg runs (one per weight-vector sample, §4) share the O(n log n)
// sort work. Lists exclude items that are null on the entry's feature; a
// separate orphan list holds items null on every profile feature so they
// are still reachable.
type Index struct {
	space *feature.Space
	// asc[d] lists item ids ascending by the feature of profile entry d.
	asc [][]int32
	// orphans are items with null on every entry's feature.
	orphans []int32
	// seenPool recycles per-run scratch across runs (see seenSet): the
	// accessed stamp array, whose claim is O(1) with no O(n) zeroing or
	// O(touched) sparse reset, and the package recycling lists, so steady
	// serving allocates few new package states.
	seenPool sync.Pool
	// heads caches the space's non-dominated item set (skyline.Heads),
	// computed lazily on the first monotone-utility search or injected by
	// the catalogue's incremental delta maintenance (SetHeads). Immutable
	// once set.
	heads     atomic.Pointer[skyline.Set]
	headsOnce sync.Once
	// part caches the sketch-refine partition and its representative
	// sub-index, materialized lazily on the first eligible search (every
	// eligible search materializes, so results within one epoch are
	// consistent) or injected by the catalogue (SetPartition). partClusters
	// configures the cluster count (0 = auto ⌈√n⌉ above PartitionMinItems,
	// <0 = partitioning disabled for this index); partStats, when set,
	// aggregates per-search partition counters across runs.
	part         atomic.Pointer[partState]
	partOnce     sync.Once
	partClusters int
	partStats    *PartitionStats
	// seenSrc, when non-nil, is the index whose seenPool this (subset)
	// index borrows: subset indexes share the full space's dense id range,
	// so sharing the pool avoids an O(n) stamp-array allocation per refine.
	seenSrc *Index
}

// seenSet is a stamped membership set over dense item IDs: item i is a
// member of the current run iff marks[i] equals the run's stamp. Claiming
// the set for a new run just increments the stamp; stale marks from prior
// runs can never collide (the stamp is a strictly increasing uint64).
//
// The set also carries the package recycling lists from run to run:
// packages leaving Q+ donate their aggregate states and id buffers to
// children materialized later, in this run or a later one. A recycled
// state is safe under any utility: GrowFrom rewrites every agg slot (plan
// dimensions are folded, the rest copied from the parent) and the size,
// so nothing of an earlier run's plan survives into a grown child. The
// lists are bound to the index's space, which subset indexes share.
type seenSet struct {
	stamp      uint64
	marks      []uint64
	freeStates []*feature.State
	freePkgs   []*pkg
}

// Heads returns the space's non-dominated item set, computing it on first
// use. Safe for concurrent searches.
func (ix *Index) Heads() *skyline.Set {
	if s := ix.heads.Load(); s != nil {
		return s
	}
	ix.headsOnce.Do(func() {
		ix.heads.CompareAndSwap(nil, skyline.Heads(ix.space))
	})
	return ix.heads.Load()
}

// PeekHeads returns the head set if it has been computed or injected, nil
// otherwise — without triggering the computation.
func (ix *Index) PeekHeads() *skyline.Set { return ix.heads.Load() }

// SetHeads injects a precomputed head set (the catalogue's incremental
// delta maintenance). A set that is already present wins; the index never
// observes two different head sets.
func (ix *Index) SetHeads(s *skyline.Set) { ix.heads.CompareAndSwap(nil, s) }

// NewIndex sorts the items of sp once per profile entry, scanning the
// per-feature columns rather than chasing item rows.
func NewIndex(sp *feature.Space) *Index {
	dims := sp.Dims()
	ix := &Index{space: sp, asc: make([][]int32, dims)}
	inSome := make([]bool, sp.N())
	for d := 0; d < dims; d++ {
		e := sp.Profile.Entry(d)
		if e.Agg == feature.AggNull {
			continue
		}
		col := sp.Col(e.Feature)
		var ids []int32
		for i, v := range col {
			if !feature.IsNull(v) {
				ids = append(ids, int32(i))
				inSome[i] = true
			}
		}
		slices.SortFunc(ids, cmpByValue(col))
		ix.asc[d] = ids
	}
	for i := range inSome {
		if !inSome[i] {
			ix.orphans = append(ix.orphans, int32(i))
		}
	}
	return ix
}

// cmpByValue is the total order every dimension list uses: ascending by
// the items' value in the feature column, ties broken by dense ID. Lists
// exclude null values, so the comparison never sees NaN.
func cmpByValue(col []float64) func(a, b int32) int {
	return func(a, b int32) int {
		va, vb := col[a], col[b]
		if va != vb {
			if va < vb {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, b)
	}
}

// Space returns the space the index was built over.
func (ix *Index) Space() *feature.Space { return ix.space }

// pkg is a package under construction: its member ids, aggregate state and
// cached utility.
type pkg struct {
	ids   []int
	state *feature.State
	util  float64
	// bound is the upper-exp extension bound as of boundRound. The boundary
	// vector τ only worsens over time, so a stale bound remains a sound
	// upper bound; it is refreshed lazily (every boundRefresh rounds).
	bound      float64
	boundRound int
}

// boundRefresh is how many accessed items may pass before a queued
// package's extension bound is recomputed against the current τ.
const boundRefresh = 16

func (p *pkg) toPackage() pkgspace.Package {
	ids := append([]int(nil), p.ids...)
	slices.Sort(ids)
	return pkgspace.Package{IDs: ids}
}

// run carries the mutable state of one Top-k-Pkg execution.
type run struct {
	ix   *Index
	u    *feature.Utility
	opts Options

	// Active list cursors: entry dim, position, boundary value, direction.
	lists []listCursor

	qPlus []*pkg
	cands *candHeap

	seen      *seenSet
	accessed  int
	created   int
	truncated bool
	maxQueue  int
	round     int

	// Dominance pruning (engaged only for monotone utilities with bound
	// pruning on): heads is the space's skyline, emptyState scores
	// singletons, initModes/initTaus/initFastPad freeze the pad
	// descriptors at their initial values — every list's τ at its best —
	// so headBound soundly bounds packages joined at any later point of
	// the trace, not just extensions of the current boundary.
	heads       *skyline.Set
	emptyState  *feature.State
	initModes   []uint8
	initTaus    []float64
	initFastPad bool
	domPruned   int

	// Sketch-refine context (nil for plain runs): pc carries the sketch
	// floor L and, on uncapped exact runs, the partition for per-cluster
	// draw skips. floorL caches pc's floor (-Inf when absent) for the hot
	// loops; partContribs is the virtual-item scratch clusterBound folds.
	pc           *partCtx
	floorL       float64
	partContribs []feature.Contrib

	// Fused-kernel plans (per-dimension constants hoisted out of the hot
	// loops): scorePlan drives ScoreAfter, padPlan drives PadUpper.
	// padModes/padTaus mirror r.lists in order (ascending dimension),
	// updated as each cursor's τ advances.
	scorePlan *feature.ScorePlan
	padPlan   *feature.PadPlan
	padModes  []uint8
	padTaus   []float64

	// fastPad is true while every pad mode is PadTau (no nullable features,
	// no exhausted cursors), enabling the non-mutating PadUpperTau kernel
	// that skips the scratch copy. Cleared the moment any cursor exhausts.
	fastPad bool

	// Reusable scratch buffers for the hot expansion path. scratch backs
	// upperExp's padding; scratchGrow holds tentative grown states (the two
	// must stay distinct — upperExp copies its argument into scratch).
	scratch     *feature.State
	scratchGrow *feature.State

	// newcomers is expand's per-round child list, reused across calls.
	newcomers []*pkg

	// boundScratch backs truncate's primitive bound sort.
	boundScratch []float64

	// stScratch/guScratch back expand's batched grow-utility pre-pass:
	// per round, the states of every queued package and their ScoreAfter
	// utilities against the drawn item, computed in one transposed sweep.
	stScratch []*feature.State
	guScratch []float64
}

// newChild materializes p ∪ {item} with the given precomputed utility,
// reusing a recycled pkg shell and state when available (see seenSet). The
// child state is grown through the score plan (GrowFrom).
func (r *run) newChild(p *pkg, item int, util float64) *pkg {
	s := r.seen
	var np *pkg
	if n := len(s.freePkgs); n > 0 {
		np = s.freePkgs[n-1]
		s.freePkgs = s.freePkgs[:n-1]
	} else {
		np = &pkg{}
	}
	var st *feature.State
	if n := len(s.freeStates); n > 0 {
		st = s.freeStates[n-1]
		s.freeStates = s.freeStates[:n-1]
	} else {
		st = feature.NewState(r.ix.space)
	}
	st.GrowFrom(p.state, r.scorePlan, int32(item))
	np.state = st
	np.ids = append(append(np.ids[:0], p.ids...), item)
	np.util = util
	np.bound, np.boundRound = 0, 0
	return np
}

// release recycles a package leaving Q+. Candidates keep their own sorted
// id copies (toPackage), so nothing aliases the recycled buffers.
func (r *run) release(p *pkg) {
	r.seen.freeStates = append(r.seen.freeStates, p.state)
	p.state = nil
	r.seen.freePkgs = append(r.seen.freePkgs, p)
}

type listCursor struct {
	dim  int       // profile entry index
	feat int       // underlying item feature
	col  []float64 // the feature's value column (τ reads)
	desc bool      // true: traverse descending (weight > 0)
	pos  int       // entries consumed
	ids  []int32
	tau  float64 // value of the last accessed item (best possible unseen)
	done bool
}

// TopK runs Top-k-Pkg for utility u over the indexed space.
func (ix *Index) TopK(u *feature.Utility, opts Options) (Result, error) {
	if opts.K <= 0 {
		return Result{}, fmt.Errorf("search: K must be positive, got %d", opts.K)
	}
	if len(u.W) != ix.space.Dims() {
		return Result{}, fmt.Errorf("search: utility has %d dims, space has %d", len(u.W), ix.space.Dims())
	}
	if ps := ix.partitionFor(u, opts); ps != nil {
		return ix.topKPartitioned(u, opts, ps), nil
	}
	return ix.topKRun(u, opts, nil), nil
}

// topKRun executes one Top-k-Pkg trace, optionally under a partition
// context (sketch floor + cluster-bound skips).
func (ix *Index) topKRun(u *feature.Utility, opts Options, pc *partCtx) Result {
	r, ok := ix.newRun(u, opts, pc)
	if !ok {
		return r.degenerate()
	}
	return r.exec()
}

// newRun builds the cursors, kernel plans and pruning state of one run
// without executing it (the beamed sketch-refine path needs the plans to
// bound clusters before deciding what to search). ok is false for the
// degenerate no-active-list case.
func (ix *Index) newRun(u *feature.Utility, opts Options, pc *partCtx) (r *run, ok bool) {
	r = &run{
		ix:          ix,
		u:           u,
		opts:        opts,
		cands:       &candHeap{k: opts.K},
		maxQueue:    opts.MaxQueue,
		pc:          pc,
		floorL:      negInf,
		scratch:     feature.NewState(ix.space),
		scratchGrow: feature.NewState(ix.space),
	}
	if pc != nil {
		r.floorL = pc.floorL
	}
	if r.maxQueue == 0 {
		r.maxQueue = DefaultMaxQueue
	}
	// Build the active list cursors (Algorithm 2 line 2): one per entry
	// with non-zero weight, traversed from the desirable end.
	for d := 0; d < ix.space.Dims(); d++ {
		e := ix.space.Profile.Entry(d)
		if u.W[d] == 0 || e.Agg == feature.AggNull || len(ix.asc[d]) == 0 {
			continue
		}
		lc := listCursor{dim: d, feat: e.Feature, col: ix.space.Col(e.Feature), desc: u.W[d] > 0, ids: ix.asc[d]}
		// Initialize τ to the best value in the list: unseen items can never
		// beat the top of the list.
		if lc.desc {
			lc.tau = lc.col[lc.ids[len(lc.ids)-1]]
		} else {
			lc.tau = lc.col[lc.ids[0]]
		}
		r.lists = append(r.lists, lc)
	}
	if len(r.lists) == 0 {
		return r, false
	}
	hasList := make([]bool, ix.space.Dims())
	for li := range r.lists {
		hasList[r.lists[li].dim] = true
	}
	var skipDims, listDims []int
	for d := 0; d < ix.space.Dims(); d++ {
		if u.W[d] != 0 && !hasList[d] {
			skipDims = append(skipDims, d)
		}
	}
	r.padModes = make([]uint8, len(r.lists))
	r.padTaus = make([]float64, len(r.lists))
	for li := range r.lists {
		lc := &r.lists[li]
		listDims = append(listDims, lc.dim)
		r.padTaus[li] = lc.tau
		if ix.space.HasNull(lc.feat) {
			r.padModes[li] = feature.PadTauOrSkip
		} else {
			r.padModes[li] = feature.PadTau
		}
	}
	r.fastPad = len(r.lists) <= 16
	for _, m := range r.padModes {
		if m != feature.PadTau {
			r.fastPad = false
		}
	}
	r.scorePlan = feature.NewScorePlan(ix.space, u)
	r.padPlan = feature.NewPadPlan(ix.space, u, skipDims, listDims)

	// Engage the dominance filter only when it is provably safe: the
	// utility must be monotone for the profile (a dominated item is then
	// pointwise no better than its dominator on every weighted dimension)
	// and bound pruning must be on (its strict admission tests are what
	// keep equal-utility tie-breaks unreachable for skipped items). The
	// pad descriptors are frozen now — every τ at its list's best value —
	// so headBound bounds membership in any package of the trace. A
	// partition context needs the same frozen descriptors for its cluster
	// bounds, under the same monotonicity gate (partitionFor enforces it).
	if !opts.DisableBoundPrune && r.monotone() &&
		(!opts.DisableDominancePrune || (pc != nil && pc.p != nil)) {
		r.emptyState = feature.NewState(ix.space)
		r.initModes = slices.Clone(r.padModes)
		r.initTaus = slices.Clone(r.padTaus)
		r.initFastPad = r.fastPad
		if !opts.DisableDominancePrune {
			r.heads = ix.Heads()
		}
	}
	return r, true
}

// exec runs the prepared trace to completion.
func (r *run) exec() Result {
	ix := r.ix
	opts := r.opts
	pool := &ix.seenPool
	if ix.seenSrc != nil {
		pool = &ix.seenSrc.seenPool
	}
	seen, _ := pool.Get().(*seenSet)
	if seen == nil || len(seen.marks) != ix.space.N() {
		seen = &seenSet{marks: make([]uint64, ix.space.N())}
	}
	seen.stamp++
	r.seen = seen
	defer pool.Put(seen)

	empty := &pkg{state: feature.NewState(ix.space), util: 0}
	empty.bound = r.upperExp(empty.state)
	r.qPlus = append(r.qPlus, empty)

	rr := 0
	for {
		// Draw the next item in round-robin order (Algorithm 2 lines 4–6).
		item, ok := r.nextItem(&rr)
		if !ok {
			break
		}
		if r.seen.marks[item] == r.seen.stamp {
			continue
		}
		r.seen.marks[item] = r.seen.stamp
		r.accessed++
		// Sketch skip: when a partition context is active, an item whose
		// whole cluster bounds strictly below the sketch floor L can head
		// or join no package that enters the results (L is the utility of
		// real packages, so L ≤ the final k-th best; strict comparison
		// keeps equal-utility tie-breaks unreachable). Mirrors the
		// dominance skip below: τ advanced, the item counts as accessed.
		if r.pc != nil && r.pc.p != nil {
			c := r.pc.p.Assign[item]
			if r.clusterBound(c) < r.floorL {
				r.pc.skipped++
				if opts.MaxAccessed > 0 && r.accessed >= opts.MaxAccessed {
					r.truncated = true
					break
				}
				continue
			}
			r.pc.open(c)
		}
		// Dominance skip: a non-head item whose best package-membership
		// bound falls strictly below the current k-th best can head or
		// join no package that enters the results — don't expand it. The
		// item still advanced τ (nextItem) and still counts as accessed.
		// While the heap is not full ηlo is -Inf and nothing is skipped
		// (unless a sketch floor is active, which is a sound k-th stand-in
		// from the start).
		if thr := max(r.cands.kthUtility(), r.floorL); r.heads != nil && !r.heads.Contains(item) && r.headBound(item) < thr {
			r.domPruned++
			if opts.MaxAccessed > 0 && r.accessed >= opts.MaxAccessed {
				r.truncated = true
				break
			}
			continue
		}
		etaLo, etaUp := r.expand(int(item))
		if etaUp <= etaLo || len(r.qPlus) == 0 {
			break
		}
		if opts.MaxAccessed > 0 && r.accessed >= opts.MaxAccessed {
			r.truncated = true
			break
		}
	}
	// Drain orphans (items null on every active feature): they can only
	// matter through size effects (avg denominators), so only in ExpandAll
	// mode can they change results; access them for completeness.
	if len(r.qPlus) > 0 {
		for _, o := range r.ix.orphans {
			if r.seen.marks[o] != r.seen.stamp {
				r.seen.marks[o] = r.seen.stamp
				r.accessed++
				etaLo, etaUp := r.expand(int(o))
				if etaUp <= etaLo || len(r.qPlus) == 0 {
					break
				}
			}
		}
	}
	// Packages still queued donate their buffers to the next run.
	for _, p := range r.qPlus {
		r.release(p)
	}
	r.qPlus = nil
	return Result{
		Packages:  r.cands.sorted(),
		Accessed:  r.accessed,
		Created:   r.created,
		Truncated: r.truncated,
		DomPruned: r.domPruned,
	}
}

// monotone reports whether the utility is monotone for the profile: every
// weighted dimension can only improve as better items join (positive
// weight on sum/max, negative on min, no weighted avg). Exactly then does
// item dominance under skyline.ProfileDirs imply pointwise utility
// dominance, which is what headBound's pad construction assumes.
func (r *run) monotone() bool {
	p := r.ix.space.Profile
	for d := 0; d < p.Dims(); d++ {
		if r.u.W[d] == 0 {
			continue
		}
		switch p.Entry(d).Agg {
		case feature.AggSum, feature.AggMax:
			if r.u.W[d] < 0 {
				return false
			}
		case feature.AggMin:
			if r.u.W[d] > 0 {
				return false
			}
		case feature.AggAvg:
			return false
		}
	}
	return true
}

// headBound returns a sound upper bound on the utility of every package
// containing the item: the max of the singleton's own utility and the
// upper-exp pad bound of the singleton taken against the *initial* τ
// vector (each list's best value). Initial τ is what makes the bound valid
// for packages whose other members were drawn before the item — their
// values exceed the current boundary but never the lists' tops.
func (r *run) headBound(id int32) float64 {
	b := r.emptyState.ScoreAfter(r.scorePlan, id)
	if r.ix.space.MaxSize > 1 {
		st := r.scratchGrow
		st.GrowFrom(r.emptyState, r.scorePlan, id)
		var ext float64
		if r.initFastPad {
			ext = st.PadUpperTau(r.padPlan, r.initTaus, r.ix.space.MaxSize)
		} else {
			s := r.scratch
			s.CopyFrom(st)
			ext = s.PadUpper(r.padPlan, r.initModes, r.initTaus, r.ix.space.MaxSize)
		}
		if ext > b {
			b = ext
		}
	}
	return b
}

// nextItem performs one sorted access in round-robin fashion, updating the
// boundary value of the list it draws from. ok is false when every list is
// exhausted.
func (r *run) nextItem(rr *int) (int32, bool) {
	n := len(r.lists)
	for tries := 0; tries < n; tries++ {
		li := *rr
		lc := &r.lists[li]
		*rr = (*rr + 1) % n
		if lc.done {
			continue
		}
		var id int32
		if lc.desc {
			id = lc.ids[len(lc.ids)-1-lc.pos]
		} else {
			id = lc.ids[lc.pos]
		}
		lc.pos++
		lc.tau = lc.col[id]
		r.padTaus[li] = lc.tau
		if lc.pos >= len(lc.ids) {
			lc.done = true
			r.padModes[li] = feature.PadSkip
			r.fastPad = false
		}
		return id, true
	}
	return 0, false
}

// expand implements Algorithm 4 for the newly accessed item, returning the
// updated (ηlo, ηup) thresholds.
//
// Two deliberate corrections to the paper's pseudo-code (see DESIGN.md):
//
//  1. The empty package always expands and is never dropped by the
//     improvement test. The paper's line 3 (grow only on strict
//     improvement) silently returns nothing when all achievable utilities
//     are negative (e.g. all-negative weights), since no singleton improves
//     on U(∅) = 0; packages must be non-empty, so ∅ is a seed, not a
//     candidate.
//  2. "Can p still improve" uses the running-max multi-pad bound
//     (upperExp) rather than a single τ-pad. The paper's single-pad test
//     relies on Lemma 3 (non-increasing pad marginals), which fails for
//     avg: marginals increase toward zero as the average converges to τ,
//     so one pad can lose while two pads win when another dimension
//     compensates.
func (r *run) expand(item int) (etaLo, etaUp float64) {
	phi := r.ix.space.MaxSize
	etaUp = negInf
	etaLo = r.cands.kthUtility()
	prune := !r.opts.DisableBoundPrune && r.cands.full()

	r.round++
	// Batched grow-utility pre-pass: score every queued package against the
	// item in one transposed sweep (dimensions outer, states inner), which
	// hoists the per-dimension constants out of the per-package loop. The
	// values are exactly what per-package ScoreAfter calls would return; the
	// main loop below consumes them without any change in decision order.
	// Packages released by the bound prune before reaching the improvement
	// test simply leave their entry unused.
	states := r.stScratch[:0]
	for _, p := range r.qPlus {
		states = append(states, p.state)
	}
	r.stScratch = states
	r.guScratch = slices.Grow(r.guScratch[:0], len(states))
	gus := r.guScratch[:len(states)]
	feature.ScoreAfterBatch(r.scorePlan, int32(item), states, gus)

	survivors := r.qPlus[:0]
	newcomers := r.newcomers[:0]
	for pi, p := range r.qPlus {
		// Refresh the extension bound lazily; a stale bound is still an
		// upper bound, so pruning on it stays sound.
		if r.round-p.boundRound >= boundRefresh {
			p.bound = r.upperExp(p.state)
			p.boundRound = r.round
		}
		if (prune && p.bound <= etaLo) || p.bound < r.floorL {
			// Neither p's extensions nor their candidacies can beat the
			// current k-th best (or the sketch floor, a sound stand-in
			// before the heap fills): drop p without expanding it.
			r.release(p)
			continue
		}
		if p.state.Size < phi {
			// Utility after adding the item, from the batched pre-pass.
			gu := gus[pi]
			// Line 3: the paper grows a package only when the new item
			// strictly improves it; ExpandAll disables that heuristic, and
			// the empty package always grows (correction 1).
			if r.opts.ExpandAll || p.state.Size == 0 || gu > p.util {
				// Materialize the child only if it can matter — as a
				// candidate (gu above the bar) or as an ancestor of one
				// (extension bound above the bar, checked on scratch). The
				// bound computed here is reused as the child's queue bound:
				// both are taken against this round's τ.
				worth := !prune || gu > etaLo
				growBound, haveBound := 0.0, false
				if !worth {
					r.scratchGrow.GrowFrom(p.state, r.scorePlan, int32(item))
					growBound, haveBound = r.upperExp(r.scratchGrow), true
					worth = growBound > etaLo
				}
				if worth {
					np := r.newChild(p, item, gu)
					if r.opts.Expand == nil || r.opts.Expand(r.ix.space, np.toPackage()) {
						r.created++
						r.offer(np)
						if r.cands.full() {
							etaLo = r.cands.kthUtility()
							prune = !r.opts.DisableBoundPrune
						}
						// Lines 5–8: keep the new package expandable while
						// its extensions can still matter.
						if haveBound {
							np.bound = growBound
						} else {
							np.bound = r.upperExp(np.state)
						}
						np.boundRound = r.round
						if r.keep(np, etaLo, prune) {
							if np.bound > etaUp {
								etaUp = np.bound
							}
							newcomers = append(newcomers, np)
						} else {
							r.release(np)
						}
					} else {
						r.release(np)
					}
				}
			}
		}
		// Lines 9–11: re-check p itself against the (possibly stale)
		// boundary bound.
		if r.keep(p, etaLo, prune) {
			if p.bound > etaUp {
				etaUp = p.bound
			}
			survivors = append(survivors, p)
		} else {
			// p moves to Q−: it was already offered as a candidate when
			// created, so it leaves the expandable queue (and donates its
			// buffers to future children).
			r.release(p)
		}
	}
	r.qPlus = append(survivors, newcomers...)
	r.newcomers = newcomers[:0]

	if r.maxQueue > 0 && len(r.qPlus) > r.maxQueue {
		r.truncate()
	}
	return etaLo, etaUp
}

// truncate enforces the Q+ cap, keeping the maxQueue packages with the
// highest extension bounds. The threshold is found by sorting a scratch
// copy of the bound values (primitive sort — far cheaper than ordering the
// packages themselves); survivors keep their queue order, with ties at the
// threshold resolved in queue order. Deterministic: the outcome depends
// only on the bounds and the queue order, never on sort internals.
func (r *run) truncate() {
	bounds := r.boundScratch[:0]
	for _, p := range r.qPlus {
		bounds = append(bounds, p.bound)
	}
	r.boundScratch = bounds
	thr := selectKth(bounds, len(bounds)-r.maxQueue)
	// Packages strictly above the threshold all survive; ties at the
	// threshold fill the remaining slots in queue order.
	above := 0
	for _, p := range r.qPlus {
		if p.bound > thr {
			above++
		}
	}
	ties := r.maxQueue - above
	kept := r.qPlus[:0]
	for _, p := range r.qPlus {
		switch {
		case p.bound > thr:
			kept = append(kept, p)
		case p.bound == thr && ties > 0:
			ties--
			kept = append(kept, p)
		default:
			r.release(p)
		}
	}
	r.qPlus = kept
	r.truncated = true
}

// selectKth returns the k-th smallest element of xs (0-based), reordering
// xs in place — a median-of-three quickselect. The returned order statistic
// is uniquely defined, so truncation outcomes never depend on the selection
// algorithm's internals. xs must be NaN-free (bounds always are).
func selectKth(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for hi > lo {
		if hi-lo < 12 {
			for i := lo + 1; i <= hi; i++ {
				for j := i; j > lo && xs[j] < xs[j-1]; j-- {
					xs[j], xs[j-1] = xs[j-1], xs[j]
				}
			}
			return xs[k]
		}
		// Median-of-three pivot, moved to lo.
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		xs[lo], xs[mid] = xs[mid], xs[lo]
		pivot := xs[lo]
		i, j := lo, hi+1
		for {
			for i++; i <= hi && xs[i] < pivot; i++ {
			}
			for j--; xs[j] > pivot; j-- {
			}
			if i >= j {
				break
			}
			xs[i], xs[j] = xs[j], xs[i]
		}
		xs[lo], xs[j] = xs[j], xs[lo]
		switch {
		case j == k:
			return xs[k]
		case j < k:
			lo = j + 1
		default:
			hi = j - 1
		}
	}
	return xs[k]
}

// keep decides whether a package stays in Q+ given its refreshed extension
// bound. In ExpandAll (exact) mode retention is purely bound-based; in the
// paper's mode a package additionally leaves Q+ once no extension can
// improve on its own utility (the paper's line-9 semantics, which trades
// top-k completeness for a smaller queue). The empty package is exempt from
// the improvement test (correction 1 above).
func (r *run) keep(p *pkg, etaLo float64, prune bool) bool {
	if p.state.Size >= r.ix.space.MaxSize || math.IsInf(p.bound, -1) {
		return false
	}
	if (prune && p.bound <= etaLo) || p.bound < r.floorL {
		return false
	}
	if !r.opts.ExpandAll && p.state.Size > 0 && p.bound <= p.util {
		return false
	}
	return true
}

// offer proposes a completed package as a result candidate. The utility
// pre-check avoids materializing the sorted id slice for the (common)
// packages that cannot enter the heap.
func (r *run) offer(p *pkg) {
	if r.cands.full() && p.util < r.cands.kthUtility() {
		return
	}
	cand := p.toPackage()
	if r.opts.Candidate != nil && !r.opts.Candidate(r.ix.space, cand) {
		return
	}
	r.cands.offer(pkgspace.Scored{Pkg: cand, Utility: p.util})
}

// upperExp is Algorithm 3 with a sound stopping rule: the maximum utility
// any proper extension of the package can reach, obtained by padding with
// the per-entry best imaginary contribution — the boundary value τ of the
// entry's list, or a null contribution when attainable (list exhausted, or
// the dataset has nulls on that feature) — up to the size cap, taking the
// running maximum over pad counts 1..φ−|p|. (The paper stops greedily at
// the first non-improving pad, justified by Lemma 3's non-increasing
// marginals; that lemma fails for avg — marginals increase toward zero as
// the average converges to τ — so the greedy stop can underestimate. The
// running maximum costs the same O(φ·d) and is always an upper bound.)
// Returns -Inf when the package is already at the size cap. The padding
// loop itself is the fused feature.PadUpper kernel, driven by the pad
// descriptors nextItem keeps in sync with the cursors.
func (r *run) upperExp(st *feature.State) float64 {
	phi := r.ix.space.MaxSize
	if st.Size >= phi {
		return negInf
	}
	if r.fastPad {
		// All-PadTau runs take the non-mutating kernel: no scratch copy,
		// no agg folds, bit-identical result.
		return st.PadUpperTau(r.padPlan, r.padTaus, phi)
	}
	s := r.scratch
	s.CopyFrom(st)
	return s.PadUpper(r.padPlan, r.padModes, r.padTaus, phi)
}

// degenerate handles the all-zero-weight utility: every package scores 0,
// so return the K first packages in the deterministic tie-break order.
func (r *run) degenerate() Result {
	res := Result{}
	count := 0
	pkgspaceEnumerate(r.ix.space, func(p pkgspace.Package) bool {
		if r.opts.Candidate != nil && !r.opts.Candidate(r.ix.space, p) {
			return count < r.opts.K
		}
		res.Packages = append(res.Packages, pkgspace.Scored{Pkg: p, Utility: 0})
		count++
		return count < r.opts.K
	})
	res.Created = count
	return res
}

// pkgspaceEnumerate enumerates packages in the deterministic order,
// stopping when fn returns false.
func pkgspaceEnumerate(s *feature.Space, fn func(pkgspace.Package) bool) {
	n := len(s.Items)
	ids := make([]int, 0, s.MaxSize)
	var rec func(start int) bool
	rec = func(start int) bool {
		for i := start; i < n; i++ {
			ids = append(ids, i)
			if !fn(pkgspace.Package{IDs: append([]int(nil), ids...)}) {
				return false
			}
			if len(ids) < s.MaxSize {
				if !rec(i + 1) {
					return false
				}
			}
			ids = ids[:len(ids)-1]
		}
		return true
	}
	rec(0)
}

var negInf = math.Inf(-1)

// candHeap keeps the best k scored packages: a min-heap ordered by utility
// ascending, ties keeping the smaller package (evicting the larger).
type candHeap struct {
	k  int
	xs []pkgspace.Scored
}

func (h *candHeap) Len() int { return len(h.xs) }
func (h *candHeap) Less(i, j int) bool {
	if h.xs[i].Utility != h.xs[j].Utility {
		return h.xs[i].Utility < h.xs[j].Utility
	}
	return pkgspace.Less(h.xs[j].Pkg, h.xs[i].Pkg)
}
func (h *candHeap) Swap(i, j int) { h.xs[i], h.xs[j] = h.xs[j], h.xs[i] }
func (h *candHeap) Push(x any)    { h.xs = append(h.xs, x.(pkgspace.Scored)) }
func (h *candHeap) Pop() any {
	n := len(h.xs) - 1
	v := h.xs[n]
	h.xs = h.xs[:n]
	return v
}

func (h *candHeap) full() bool { return len(h.xs) >= h.k }

// kthUtility returns ηlo: the k-th best utility so far, or -Inf while fewer
// than k candidates exist.
func (h *candHeap) kthUtility() float64 {
	if !h.full() {
		return negInf
	}
	return h.xs[0].Utility
}

func (h *candHeap) offer(s pkgspace.Scored) {
	if len(h.xs) < h.k {
		heap.Push(h, s)
		return
	}
	root := &h.xs[0]
	if s.Utility > root.Utility || (s.Utility == root.Utility && pkgspace.Less(s.Pkg, root.Pkg)) {
		h.xs[0] = s
		heap.Fix(h, 0)
	}
}

// sorted drains the heap into descending-utility order.
func (h *candHeap) sorted() []pkgspace.Scored {
	out := append([]pkgspace.Scored(nil), h.xs...)
	pkgspace.SortScored(out)
	return out
}

// Sketch-refine partitioned search (Brucato et al., "Scalable Package
// Queries in Relational Database Systems", adapted to Top-k-Pkg): the
// catalogue is clustered into ~√n value-space groups (internal/partition);
// a search first sketches — runs the beamed kernel over the cluster
// representatives only, yielding real packages whose k-th utility L is a
// lower bound on the true k-th — and then refines:
//
//   - Uncapped, unbudgeted runs (MaxQueue < 0, MaxAccessed == 0) replay
//     the full trace but skip every item whose whole cluster bounds
//     strictly below L, and drop queued packages bounding strictly below
//     L. Every lever is strict-below-a-real-utility, so the result is
//     bit-identical to the unpartitioned run (the property suite's
//     invariant), mirroring the dominance filter's admission argument.
//   - Beamed or budgeted runs (already approximate by contract) search
//     only a subset index over the clusters that can matter: the clusters
//     contributing to sketch candidates, plus the best-bounded remaining
//     clusters while they beat L, up to an item budget of 32·⌈√n⌉. Sketch
//     candidates merge into the final top-k so refinement never loses
//     them. This is what makes anti-correlated catalogues — where the
//     skyline covers ~half the items and dominance pruning is inert —
//     sublinear in practice.
//
// Partitioning auto-engages for monotone utilities with bound pruning on
// and no predicates, once the catalogue reaches PartitionMinItems (or a
// partition was injected/configured); every eligible search materializes
// it, so results within one epoch are consistent for result caching.
package search

import (
	"cmp"
	"math"
	"slices"
	"sync/atomic"

	"toppkg/internal/feature"
	"toppkg/internal/partition"
	"toppkg/internal/pkgspace"
)

// PartitionMinItems is the catalogue size below which partitioning stays
// off unless a cluster count was configured explicitly or a partition was
// injected: below it the sketch-refine detour costs more than it saves.
const PartitionMinItems = 4096

// refineBudgetItems bounds how many items bound-admitted (non-candidate)
// clusters may add to a beamed refine: 32·⌈√n⌉ keeps the refine subset a
// vanishing fraction of large catalogues while leaving dozens of clusters
// of headroom over the sketch candidates.
func refineBudgetItems(n int) int {
	return 32 * partition.DefaultClusters(n)
}

// PartitionStats aggregates partition counters across searches; the
// catalogue shares one instance across its epochs' indexes so /healthz can
// report per-search refine behavior.
type PartitionStats struct {
	// Searches counts partition-engaged TopK runs.
	Searches atomic.Int64
	// SketchSkipped totals Result.SketchSkipped across runs.
	SketchSkipped atomic.Int64
	// ClustersOpened totals Result.RefineClustersOpened across runs.
	ClustersOpened atomic.Int64
}

// partState is the materialized partition of one index: the clustering
// plus a persistent subset index over the cluster representatives the
// sketch phase searches.
type partState struct {
	p      *partition.Partition
	sketch *Index
}

// partCtx threads partition-derived pruning into a run. floorL is the
// sketch floor L; p, when non-nil, additionally enables the per-item
// cluster-bound draw skip (the uncapped exact path — beamed refines
// pre-select their subset instead). bounds caches per-cluster bounds
// (NaN = not yet computed), opened/skipped feed the result counters.
type partCtx struct {
	p       *partition.Partition
	floorL  float64
	bounds  []float64
	opened  []bool
	skipped int
}

func (pc *partCtx) open(c int32) {
	if pc.opened == nil {
		pc.opened = make([]bool, pc.p.K)
	}
	pc.opened[c] = true
}

// ConfigurePartition sets the index's cluster count (0 = auto ⌈√n⌉ once
// the space reaches PartitionMinItems, negative = disable partitioning)
// and the shared stats sink. Not synchronized: call before the index
// serves concurrent searches (the catalogue configures each epoch's index
// at build time).
func (ix *Index) ConfigurePartition(clusters int, stats *PartitionStats) {
	ix.partClusters = clusters
	ix.partStats = stats
}

// PeekPartition returns the partition if it has been materialized or
// injected, nil otherwise — without triggering the build.
func (ix *Index) PeekPartition() *partition.Partition {
	if ps := ix.part.Load(); ps != nil {
		return ps.p
	}
	return nil
}

// SetPartition injects a partition (the catalogue's incremental delta
// maintenance). A partition that is already present wins; the index never
// observes two different partitions.
func (ix *Index) SetPartition(p *partition.Partition) {
	if p == nil {
		return
	}
	ix.install(p)
}

// EnsurePartition materializes the partition with the given cluster count
// (<= 0 selects the ⌈√n⌉ default) and returns it; benchmarks use it to
// keep the build outside timed sections. Returns nil for an empty space.
func (ix *Index) EnsurePartition(clusters int) *partition.Partition {
	if ps := ix.part.Load(); ps != nil {
		return ps.p
	}
	ix.partOnce.Do(func() {
		if ix.space.N() > 0 {
			ix.install(partition.Build(ix.space, clusters))
		}
	})
	return ix.PeekPartition()
}

func (ix *Index) install(p *partition.Partition) {
	keep := make([]bool, ix.space.N())
	for _, rep := range p.Reps {
		if rep >= 0 {
			keep[rep] = true
		}
	}
	ix.part.CompareAndSwap(nil, &partState{p: p, sketch: ix.subsetIndex(keep)})
}

// partitionFor decides whether a run engages sketch-refine, materializing
// the partition if the index is eligible. The gates mirror the dominance
// filter's: monotone utility, bound pruning on, no predicate closures —
// plus at least one weighted dimension (the degenerate path enumerates the
// whole space) and the size/configuration gate.
func (ix *Index) partitionFor(u *feature.Utility, opts Options) *partState {
	if opts.DisablePartition || opts.DisableBoundPrune ||
		opts.Candidate != nil || opts.Expand != nil || ix.partClusters < 0 {
		return nil
	}
	if !u.SetMonotone(ix.space.Profile) {
		return nil
	}
	weighted := false
	for _, w := range u.W {
		if w != 0 {
			weighted = true
			break
		}
	}
	if !weighted {
		return nil
	}
	if ps := ix.part.Load(); ps != nil {
		return ps
	}
	n := ix.space.N()
	if n == 0 {
		return nil
	}
	k := ix.partClusters
	if k == 0 {
		if n < PartitionMinItems {
			return nil
		}
		k = partition.DefaultClusters(n)
	}
	ix.partOnce.Do(func() { ix.install(partition.Build(ix.space, k)) })
	return ix.part.Load()
}

// topKPartitioned runs the sketch phase and dispatches to the exact or
// beamed refine.
func (ix *Index) topKPartitioned(u *feature.Utility, opts Options, ps *partState) Result {
	sketchOpts := Options{
		K:         opts.K,
		ExpandAll: opts.ExpandAll,
		MaxQueue:  DefaultMaxQueue,
		// The representative set is ~√n items; dominance adds nothing and
		// partitioning must not recurse.
		DisableDominancePrune: true,
		DisablePartition:      true,
	}
	sk, ok := ps.sketch.newRun(u, sketchOpts, nil)
	if !ok {
		// Every representative is null on every weighted dimension, so the
		// sketch has no cursors: its degenerate enumeration would score
		// packages of the whole shared space at 0, which is no real
		// package's utility and so no floor. Search without the partition.
		return ix.topKRun(u, opts, nil)
	}
	skRes := sk.exec()
	floorL := negInf
	if len(skRes.Packages) >= opts.K {
		floorL = skRes.Packages[opts.K-1].Utility
	}
	maxQ := opts.MaxQueue
	if maxQ == 0 {
		maxQ = DefaultMaxQueue
	}
	if maxQ < 0 && opts.MaxAccessed <= 0 {
		return ix.refineExact(u, opts, ps.p, skRes, floorL)
	}
	return ix.refineBeamed(u, opts, ps, skRes, floorL)
}

// refineExact replays the full uncapped trace under the sketch floor.
// Every lever (draw skip, queue drop) compares strictly below L, and L is
// the utility of a real package, so L ≤ the final k-th utility: nothing
// that could enter the results — or shift an equal-utility tie-break — is
// ever skipped, and the outcome is bit-identical to the unpartitioned run.
func (ix *Index) refineExact(u *feature.Utility, opts Options, p *partition.Partition, skRes Result, floorL float64) Result {
	pc := &partCtx{p: p, floorL: floorL}
	res := ix.topKRun(u, opts, pc)
	res.Accessed += skRes.Accessed
	res.Created += skRes.Created
	res.SketchSkipped = pc.skipped
	for _, o := range pc.opened {
		if o {
			res.RefineClustersOpened++
		}
	}
	ix.recordPartStats(res)
	return res
}

// refineBeamed searches a subset index over the clusters that can matter
// and merges the sketch candidates into the final top-k. Beamed/budgeted
// runs are best-effort by contract, so the subset selection needs no
// exactness argument — only determinism (bounds and cluster ids order it).
func (ix *Index) refineBeamed(u *feature.Utility, opts Options, ps *partState, skRes Result, floorL float64) Result {
	p := ps.p
	pc := &partCtx{p: p, floorL: floorL}
	rb, ok := ix.newRun(u, opts, pc)
	if !ok {
		// Weighted features all-null: no cursors anywhere, degenerate path.
		return ix.topKRun(u, opts, nil)
	}
	open := make([]bool, p.K)
	for _, s := range skRes.Packages {
		for _, id := range s.Pkg.IDs {
			open[p.Assign[id]] = true
		}
	}
	type clusterScore struct {
		c     int32
		bound float64
	}
	used := 0
	scored := make([]clusterScore, 0, p.K)
	for c := 0; c < p.K; c++ {
		if open[c] {
			used += len(p.Members[c])
			continue
		}
		scored = append(scored, clusterScore{int32(c), rb.clusterBound(int32(c))})
	}
	slices.SortFunc(scored, func(a, b clusterScore) int {
		if a.bound != b.bound {
			if a.bound > b.bound {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.c, b.c)
	})
	limit := used + refineBudgetItems(ix.space.N())
	for _, cs := range scored {
		if cs.bound < floorL || used >= limit {
			break
		}
		open[cs.c] = true
		used += len(p.Members[cs.c])
	}

	keep := make([]bool, ix.space.N())
	subsetSize, openedCount := 0, 0
	for c, o := range open {
		if !o {
			continue
		}
		openedCount++
		for _, id := range p.Members[c] {
			keep[id] = true
			subsetSize++
		}
	}
	sub := ix.subsetIndex(keep)
	if !opts.DisableDominancePrune {
		// The global head set is sound on any subset (headBound depends
		// only on the item's own values); inject it so the subset index
		// never computes its own skyline.
		sub.SetHeads(ix.Heads())
	}
	rr, ok := sub.newRun(u, opts, &partCtx{floorL: floorL})
	if !ok {
		// The opened clusters are null on every weighted dimension: the
		// subset's degenerate enumeration would score its packages at 0
		// rather than by their utility. Search without the partition.
		return ix.topKRun(u, opts, nil)
	}
	refRes := rr.exec()
	merged := refRes
	merged.Packages = mergeScored(refRes.Packages, skRes.Packages, opts.K)
	merged.Accessed += skRes.Accessed
	merged.Created += skRes.Created
	merged.Truncated = merged.Truncated || skRes.Truncated
	merged.DomPruned += skRes.DomPruned
	merged.SketchSkipped = ix.space.N() - subsetSize
	merged.RefineClustersOpened = openedCount
	ix.recordPartStats(merged)
	return merged
}

func (ix *Index) recordPartStats(res Result) {
	st := ix.partStats
	if st == nil {
		return
	}
	st.Searches.Add(1)
	st.SketchSkipped.Add(int64(res.SketchSkipped))
	st.ClustersOpened.Add(int64(res.RefineClustersOpened))
}

// subsetIndex filters the index's sorted lists and orphans through a dense
// membership mask. Filtering preserves the (value, id) order, so the
// subset searches exactly as a freshly built index over the kept items
// would; the full space (and its dense ids) is shared, as is the seen-set
// pool of the root index.
func (ix *Index) subsetIndex(keep []bool) *Index {
	src := ix
	if ix.seenSrc != nil {
		src = ix.seenSrc
	}
	sub := &Index{
		space:        ix.space,
		asc:          make([][]int32, len(ix.asc)),
		partClusters: -1,
		seenSrc:      src,
	}
	for d, ids := range ix.asc {
		if ids == nil {
			continue
		}
		out := make([]int32, 0, len(ids)/8)
		for _, id := range ids {
			if keep[id] {
				out = append(out, id)
			}
		}
		sub.asc[d] = out
	}
	for _, o := range ix.orphans {
		if keep[o] {
			sub.orphans = append(sub.orphans, o)
		}
	}
	return sub
}

// clusterBound returns (computing and caching on first use) a sound upper
// bound on the utility of every package containing any member of cluster c.
func (r *run) clusterBound(c int32) float64 {
	pc := r.pc
	if pc.bounds == nil {
		pc.bounds = make([]float64, pc.p.K)
		for i := range pc.bounds {
			pc.bounds[i] = math.NaN()
		}
	}
	if b := pc.bounds[c]; !math.IsNaN(b) {
		return b
	}
	b := r.computeClusterBound(c)
	pc.bounds[c] = b
	return b
}

// computeClusterBound is headBound lifted from an item to a cluster: a
// virtual best member is assembled from the cluster's per-dimension bounds
// and bounded exactly like a singleton — max of its own score and its
// upper-exp pad bound against the frozen initial τ vector.
//
// Per weighted dimension the virtual member takes the oriented best raw
// value (Maxs for sum/max with w > 0, Mins for min with w < 0 — the
// monotone gate fixes these orientations), which by kernel monotonicity
// dominates every member's contribution on that dimension. When the
// cluster has a null there and the best value still scores negatively, a
// null member's zero contribution is the better case, so the virtual
// member skips the dimension instead — dominating both kinds of member on
// both the singleton and the padded-extension side (pads fold the global
// per-list best τ, which bounds any real co-member's value).
func (r *run) computeClusterBound(c int32) float64 {
	p := r.pc.p
	sp := r.ix.space
	dims := sp.Dims()
	if r.partContribs == nil {
		r.partContribs = make([]feature.Contrib, dims)
	}
	contribs := r.partContribs
	for d := 0; d < dims; d++ {
		e := sp.Profile.Entry(d)
		w := r.u.W[d]
		if w == 0 || e.Agg == feature.AggNull {
			contribs[d] = feature.Contrib{Skip: true}
			continue
		}
		var v float64
		if e.Agg == feature.AggMin {
			v = p.Mins[c][d]
		} else {
			v = p.Maxs[c][d]
		}
		if math.IsInf(v, 0) || (p.AnyNull[c][d] && w*v < 0) {
			contribs[d] = feature.Contrib{Skip: true}
			continue
		}
		contribs[d] = feature.Contrib{Value: v}
	}
	st := r.scratchGrow
	st.CopyFrom(r.emptyState)
	st.AddContrib(contribs)
	b := r.u.ScoreState(st)
	if sp.MaxSize > 1 {
		var ext float64
		if r.initFastPad {
			ext = st.PadUpperTau(r.padPlan, r.initTaus, sp.MaxSize)
		} else {
			s := r.scratch
			s.CopyFrom(st)
			ext = s.PadUpper(r.padPlan, r.initModes, r.initTaus, sp.MaxSize)
		}
		if ext > b {
			b = ext
		}
	}
	return b
}

// mergeScored combines the refine and sketch result lists, dropping
// duplicate packages, into the final descending top-k.
func mergeScored(a, b []pkgspace.Scored, k int) []pkgspace.Scored {
	out := append([]pkgspace.Scored(nil), a...)
	for _, s := range b {
		dup := false
		for _, t := range a {
			if slices.Equal(t.Pkg.IDs, s.Pkg.IDs) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s)
		}
	}
	pkgspace.SortScored(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// Package catalog is the live item store behind a serving deployment: a
// versioned, mutable catalogue with copy-on-write epoch snapshots. The
// paper assumes a fixed item relation T, but the scenario it motivates
// (§1: packages recommended at login, clicks fed back) is exactly the
// setting where inventory arrives, sells out, and gets repriced while
// sessions are live.
//
// A Catalog owns the authoritative item set, keyed by a stable item ID,
// and accepts Upsert/Delete batches. Each committed batch makes the
// catalogue dirty; a background rebuilder coalesces rapid mutation bursts,
// builds a fresh immutable Epoch — monotonic ID plus the feature.Space and
// search.Index every reader needs — off-request, and atomically swaps it
// in. Readers resolve the current epoch with one atomic load and then work
// against immutable state, so a recommend in flight never observes a torn
// index and never blocks on a rebuild; it simply runs to completion on the
// epoch it started with.
//
// Dense vs stable IDs: the rest of the system addresses items positionally
// (package item IDs index feature.Space.Items). Each epoch therefore
// compacts the authoritative set into a dense slice ordered by stable ID
// and records the mapping both ways. As long as no lower-numbered item is
// deleted, an item keeps its dense ID across epochs; Epoch.DenseID and
// Epoch.StableID translate when that does not hold.
package catalog

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"toppkg/internal/feature"
	"toppkg/internal/partition"
	"toppkg/internal/search"
	"toppkg/internal/skyline"
)

// DefaultCoalesce is the rebuild coalescing window applied when
// Config.Coalesce is zero: after the first mutation dirties the catalogue,
// the rebuilder waits this long for the burst to finish before building,
// so a stream of rapid batches costs one rebuild, not one per batch.
const DefaultCoalesce = 20 * time.Millisecond

// DefaultDeltaThreshold is the delta-build eligibility bound applied when
// Config.DeltaThreshold is zero: batches touching at most this many
// distinct stable IDs since the current epoch build the next epoch
// incrementally from it instead of from scratch.
const DefaultDeltaThreshold = 256

// DefaultReclusterImbalance is the partition imbalance threshold applied
// when Config.PartitionReclusterImbalance is zero: incremental partition
// maintenance keeps assigning new items to their nearest clusters until
// the fullest cluster exceeds this multiple of the balanced size, at which
// point the next delta build re-clusters from scratch.
const DefaultReclusterImbalance = 4.0

// Config configures a Catalog.
type Config struct {
	// Profile is the aggregate feature profile every epoch is built
	// against (required; it fixes the utility dimensionality, so it cannot
	// change across epochs).
	Profile *feature.Profile
	// MaxPackageSize is φ (required positive).
	MaxPackageSize int
	// Items is the initial item set (required non-empty). Item.ID is the
	// stable catalogue key; IDs must be non-negative and distinct.
	Items []feature.Item
	// Coalesce tunes the rebuild coalescing window: 0 selects
	// DefaultCoalesce, a negative value disables the background rebuilder
	// entirely — every mutation batch rebuilds and swaps synchronously
	// before Upsert/Delete returns (deterministic; meant for tests and
	// offline tools).
	Coalesce time.Duration
	// DeltaThreshold bounds how many distinct stable IDs may have changed
	// since the current epoch for the next build to take the incremental
	// delta path (O(batch·log n), see buildEpochFrom); larger change sets
	// take the full O(n log n) rebuild, which is also the always-correct
	// fallback. 0 selects DefaultDeltaThreshold; negative disables delta
	// builds entirely.
	DeltaThreshold int
	// PartitionClusters fixes the sketch-refine cluster count for every
	// epoch's search index: 0 lets the index choose (⌈√n⌉ once the
	// catalogue reaches search.PartitionMinItems), negative disables
	// partitioned search entirely.
	PartitionClusters int
	// PartitionReclusterImbalance is the partition.Imbalance threshold
	// past which a delta build re-clusters from scratch instead of
	// maintaining the parent partition incrementally. 0 selects
	// DefaultReclusterImbalance; values below 1 are rejected (the fullest
	// cluster is never below the balanced size).
	PartitionReclusterImbalance float64
}

// Epoch is one immutable snapshot of the catalogue: everything a reader
// needs to serve recommendations, plus the stable↔dense ID mapping. Epoch
// IDs are monotonic; the initial build is epoch 1.
type Epoch struct {
	// ID is the monotonic epoch number.
	ID uint64
	// Space is the feature space over the epoch's dense item slice.
	Space *feature.Space
	// Index is the Top-k-Pkg search index over Space.
	Index *search.Index
	// ids is the stable↔dense translation for this epoch.
	ids *IDMap
}

// IDMap is the immutable stable↔dense ID translation of one epoch. It is
// shareable on its own: holders translating IDs for a retired epoch (e.g.
// a session whose last slate predates a swap) keep only the mapping, not
// the epoch's search index, so an idle session does not pin a dead index
// in memory.
type IDMap struct {
	// stable[i] is the stable catalogue ID of dense item i.
	stable []int
	// dense maps stable ID → dense index.
	dense map[int]int
	// hash fingerprints the assignment (see Hash).
	hash uint64
}

// Len returns the number of items the mapping covers.
func (m *IDMap) Len() int { return len(m.stable) }

// Hash fingerprints the stable→dense assignment: IDMapHash over the
// stable IDs in dense order. Two epochs with equal hashes give every
// dense position the same stable identity, so learned state keyed by
// stable IDs refers to the same dense items under both.
func (m *IDMap) Hash() uint64 { return m.hash }

// IDMapHash digests a stable-ID slice in dense order — the shared
// fingerprint function, exported so a static deployment (whose stable
// identity is the dense positions themselves) hashes identically to a
// live epoch that assigns stable ID i to dense item i.
func IDMapHash(stable []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, s := range stable {
		binary.LittleEndian.PutUint64(buf[:], uint64(s))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// StableID returns the stable catalogue ID of dense item i.
func (m *IDMap) StableID(i int) int { return m.stable[i] }

// DenseID returns the dense index of the item with the given stable ID,
// and whether it exists in this mapping.
func (m *IDMap) DenseID(stable int) (int, bool) {
	i, ok := m.dense[stable]
	return i, ok
}

// Items returns the epoch's dense item slice (do not mutate).
func (ep *Epoch) Items() []feature.Item { return ep.Space.Items }

// IDs returns the epoch's stable↔dense translation.
func (ep *Epoch) IDs() *IDMap { return ep.ids }

// StableID returns the stable catalogue ID of dense item i.
func (ep *Epoch) StableID(i int) int { return ep.ids.StableID(i) }

// DenseID returns the dense index of the item with the given stable ID,
// and whether it exists in this epoch.
func (ep *Epoch) DenseID(stable int) (int, bool) { return ep.ids.DenseID(stable) }

// Stats is a point-in-time view of the catalogue's activity.
type Stats struct {
	// Epoch is the current epoch ID; Items its item count.
	Epoch uint64 `json:"epoch"`
	Items int    `json:"items"`
	// Upserts and Deletes count items written and removed; Batches counts
	// committed mutation batches.
	Upserts int64 `json:"upserts"`
	Deletes int64 `json:"deletes"`
	Batches int64 `json:"batches"`
	// Rebuilds counts epoch builds (including the initial one); when
	// smaller than Batches+1, coalescing folded bursts together.
	Rebuilds int64 `json:"rebuilds"`
	// DeltaBuilds counts epochs derived incrementally from their parent
	// (O(batch·log n)); FullRebuilds counts from-scratch builds, including
	// the initial one (Rebuilds = DeltaBuilds + FullRebuilds).
	// DeltaFallbacks counts delta attempts that errored and fell back to a
	// full rebuild (healthy operation keeps it at zero).
	DeltaBuilds    int64 `json:"delta_builds"`
	FullRebuilds   int64 `json:"full_rebuilds"`
	DeltaFallbacks int64 `json:"delta_fallbacks,omitempty"`
	// SkylineIncremental counts delta builds whose non-dominated head set
	// (the search layer's dominance-pruning frontier) was maintained
	// incrementally from the parent epoch's; SkylineRecomputes counts delta
	// builds that had to recompute it from scratch (a removed or replaced
	// item was a head, which may expose items it alone dominated). Both
	// stay zero until a monotone-utility search first materializes the set.
	// Insert-only batches always maintain incrementally.
	SkylineIncremental int64 `json:"skyline_incremental"`
	SkylineRecomputes  int64 `json:"skyline_recomputes"`
	// PartitionClusters and PartitionImbalance describe the current
	// epoch's sketch-refine partition (zero until a monotone-utility
	// search first materializes it — or partitioning is disabled).
	// PartitionIncremental counts delta builds that carried the partition
	// forward incrementally; PartitionReclusters counts delta builds that
	// re-clustered from scratch (incremental maintenance refused, or
	// drift pushed the imbalance past the configured threshold).
	PartitionClusters    int     `json:"partition_clusters"`
	PartitionImbalance   float64 `json:"partition_imbalance,omitempty"`
	PartitionIncremental int64   `json:"partition_incremental"`
	PartitionReclusters  int64   `json:"partition_reclusters"`
	// PartitionSearches counts partition-engaged searches across all
	// epochs; SketchSkipped and RefineClustersOpened total the per-search
	// counters of the same names (items never drawn thanks to the sketch
	// floor, and clusters the refine phase opened).
	PartitionSearches    int64 `json:"partition_searches"`
	SketchSkipped        int64 `json:"sketch_skipped"`
	RefineClustersOpened int64 `json:"refine_clusters_opened"`
	// BuildErrors counts rebuilds that failed and kept the previous epoch
	// (should stay zero: batches are validated before commit); LastError
	// is the most recent such failure, empty when healthy.
	BuildErrors int64  `json:"build_errors"`
	LastError   string `json:"last_error,omitempty"`
	// Pending reports whether committed mutations are not yet covered by
	// the current epoch (a rebuild is queued or running).
	Pending bool `json:"pending"`
}

// Catalog is the mutable item store. All methods are safe for concurrent
// use; Current is wait-free (one atomic load).
type Catalog struct {
	profile  *feature.Profile
	maxSize  int
	coalesce time.Duration
	deltaMax int // delta-build eligibility bound; <= 0 disables

	partClusters  int     // sketch-refine cluster count; see Config
	partImbalance float64 // re-cluster threshold; see Config
	partStats     *search.PartitionStats

	cur atomic.Pointer[Epoch]

	mu       sync.Mutex // guards everything below; never held across a build
	items    map[int]feature.Item
	version  uint64 // bumped per committed batch
	built    uint64 // version the current epoch covers
	building bool   // a rebuild goroutine is scheduled or running
	closed   bool   // Close ran: mutations are rejected, rebuilder quiesced
	caughtUp *sync.Cond
	closeCh  chan struct{} // closed by Close; wakes the rebuilder's sleep
	subs     []func(*Epoch, *ChangeSet)

	// pending maps each stable ID changed since the installed epoch to the
	// version of its latest change — the delta builder's work list. Entries
	// at or below the installed epoch's version (curVersion) are pruned on
	// every install, so the invariant pending = {IDs changed in
	// (curVersion, version]} holds even across failed or discarded builds.
	pending    map[int]uint64
	curVersion uint64 // version the installed epoch covers

	nextEpoch  uint64
	upserts    int64
	deletes    int64
	batches    int64
	rebuilds   int64
	deltas     int64
	fulls      int64
	deltaFalls int64
	skylineInc int64
	skylineRec int64
	partInc    int64
	partRec    int64
	buildErrs  int64
	lastErr    error
}

// New validates cfg, builds epoch 1 synchronously, and returns the
// catalogue ready to serve.
func New(cfg Config) (*Catalog, error) {
	if cfg.Profile == nil {
		return nil, fmt.Errorf("catalog: Config.Profile is required")
	}
	if cfg.MaxPackageSize <= 0 {
		return nil, fmt.Errorf("catalog: MaxPackageSize must be positive, got %d", cfg.MaxPackageSize)
	}
	if len(cfg.Items) == 0 {
		return nil, fmt.Errorf("catalog: empty initial item set")
	}
	if cfg.Coalesce == 0 {
		cfg.Coalesce = DefaultCoalesce
	}
	if cfg.DeltaThreshold == 0 {
		cfg.DeltaThreshold = DefaultDeltaThreshold
	}
	if cfg.PartitionReclusterImbalance == 0 {
		cfg.PartitionReclusterImbalance = DefaultReclusterImbalance
	}
	if cfg.PartitionReclusterImbalance < 1 {
		return nil, fmt.Errorf("catalog: PartitionReclusterImbalance must be >= 1, got %g", cfg.PartitionReclusterImbalance)
	}
	c := &Catalog{
		profile:       cfg.Profile,
		maxSize:       cfg.MaxPackageSize,
		coalesce:      cfg.Coalesce,
		deltaMax:      cfg.DeltaThreshold,
		partClusters:  cfg.PartitionClusters,
		partImbalance: cfg.PartitionReclusterImbalance,
		partStats:     &search.PartitionStats{},
		items:         make(map[int]feature.Item, len(cfg.Items)),
		pending:       make(map[int]uint64),
		closeCh:       make(chan struct{}),
	}
	c.caughtUp = sync.NewCond(&c.mu)
	for i := range cfg.Items {
		it := cfg.Items[i]
		if err := c.validateItem(it); err != nil {
			return nil, err
		}
		if _, dup := c.items[it.ID]; dup {
			return nil, fmt.Errorf("catalog: duplicate initial item ID %d", it.ID)
		}
		c.items[it.ID] = copyItem(it)
	}
	ep, err := c.build(1)
	if err != nil {
		return nil, err
	}
	c.nextEpoch = 1
	c.rebuilds = 1
	c.fulls = 1
	c.cur.Store(ep)
	return c, nil
}

// Current returns the epoch readers should serve from. The returned epoch
// is immutable and remains valid (and consistent) for as long as the
// caller holds it, even across later swaps.
func (c *Catalog) Current() *Epoch { return c.cur.Load() }

// Profile returns the profile every epoch is built against.
func (c *Catalog) Profile() *feature.Profile { return c.profile }

// MaxPackageSize returns φ.
func (c *Catalog) MaxPackageSize() int { return c.maxSize }

// ChangeSet describes what an installed epoch changed relative to the
// parent it was delta-built from, precisely enough to carry dense-keyed
// derived state (dominance heads, the sketch-refine partition) forward
// instead of rebuilding it. A full rebuild carries no per-item
// attribution: Full is set and every other field must be ignored.
type ChangeSet struct {
	// Parent is the ID of the epoch the set is relative to. Derived state
	// keyed to any other epoch must be dropped regardless of the fields
	// below.
	Parent uint64
	// Full marks a full (or fallen-back) rebuild: treat everything as
	// changed.
	Full bool
	// Dirty holds the parent-dense ids of items replaced or deleted by the
	// batch, ascending.
	Dirty []int32
	// Fresh holds the new-dense ids of items inserted or re-priced by the
	// batch (the new identity of every replaced item), ascending.
	Fresh []int32
	// Remap translates parent-dense ids to new-dense ids (-1 for items not
	// carried over); nil when the assignment is unchanged. Subscribers
	// carrying dense-keyed state across the swap must renumber through it,
	// or the next swap's Dirty/Fresh ids would be compared against a stale
	// id space. Order-preserving over carried items.
	Remap []int32
}

// Subscribe registers fn to run after every epoch swap, with the epoch
// just installed and the change set relative to its parent (nil when the
// swap came from a full rebuild of an unversioned ancestry — treat like
// Full). Callbacks run on the rebuilder goroutine (or the mutating
// goroutine in synchronous mode) and must be safe for concurrent use with
// readers; keep them short.
func (c *Catalog) Subscribe(fn func(*Epoch, *ChangeSet)) {
	c.mu.Lock()
	c.subs = append(c.subs, fn)
	c.mu.Unlock()
}

// validateItem front-loads every constraint feature.NewSpace would reject,
// so a committed batch cannot make the catalogue unbuildable.
func (c *Catalog) validateItem(it feature.Item) error {
	if it.ID < 0 {
		return fmt.Errorf("catalog: negative item ID %d", it.ID)
	}
	if len(it.Values) != c.profile.FeatureCount() {
		return fmt.Errorf("catalog: item %d has %d values, profile expects %d",
			it.ID, len(it.Values), c.profile.FeatureCount())
	}
	for f, v := range it.Values {
		if !feature.IsNull(v) && v < 0 {
			return fmt.Errorf("catalog: item %d has negative value %g on feature %d", it.ID, v, f)
		}
	}
	return nil
}

// ErrClosed rejects mutations committed after Close: the rebuilder has
// quiesced, so an accepted batch would never reach an epoch.
var ErrClosed = errors.New("catalog: closed")

// Upsert inserts or replaces the given items as one atomic batch. The
// whole batch is validated first; on error nothing is committed. Returns
// once the batch is committed (and, in synchronous mode, swapped in).
func (c *Catalog) Upsert(items []feature.Item) error {
	if len(items) == 0 {
		return fmt.Errorf("catalog: empty upsert batch")
	}
	for i := range items {
		if err := c.validateItem(items[i]); err != nil {
			return err
		}
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	changed := make([]int, len(items))
	for i := range items {
		c.items[items[i].ID] = copyItem(items[i])
		changed[i] = items[i].ID
	}
	c.upserts += int64(len(items))
	c.commitLocked(changed) // unlocks c.mu
	return nil
}

// Delete removes the items with the given stable IDs as one atomic batch,
// reporting how many existed. Missing IDs are not an error; a batch that
// would empty the catalogue is rejected without committing anything.
func (c *Catalog) Delete(ids []int) (removed int, err error) {
	if len(ids) == 0 {
		return 0, fmt.Errorf("catalog: empty delete batch")
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, ErrClosed
	}
	// Count distinct existing IDs: a batch may repeat an ID, which must
	// neither inflate the removal count past the item count (emptying the
	// catalogue through the guard) nor falsely trip the guard.
	distinct := make(map[int]bool, len(ids))
	for _, id := range ids {
		if _, ok := c.items[id]; ok {
			distinct[id] = true
		}
	}
	removed = len(distinct)
	if removed == len(c.items) {
		c.mu.Unlock()
		return 0, fmt.Errorf("catalog: delete batch would empty the catalogue")
	}
	if removed == 0 {
		c.mu.Unlock()
		return 0, nil
	}
	changed := make([]int, 0, removed)
	for id := range distinct {
		delete(c.items, id)
		changed = append(changed, id)
	}
	c.deletes += int64(removed)
	c.commitLocked(changed) // unlocks c.mu
	return removed, nil
}

// commitLocked records a committed batch — the stable IDs it changed join
// the pending set the delta builder works from — and arranges the rebuild.
// Called with c.mu held; always releases it.
func (c *Catalog) commitLocked(changed []int) {
	c.version++
	c.batches++
	for _, id := range changed {
		c.pending[id] = c.version
	}
	if c.coalesce < 0 {
		// Synchronous mode: build before returning to the caller.
		c.rebuildLocked() // unlocks c.mu
		return
	}
	if !c.building {
		c.building = true
		go c.rebuildLoop()
	}
	c.mu.Unlock()
}

// rebuildLoop is the background rebuilder: it coalesces the mutation burst
// that woke it, builds off-request, swaps, and exits once the epoch covers
// every committed batch. A later burst starts a fresh goroutine, so the
// catalogue holds no long-lived goroutines while quiescent.
func (c *Catalog) rebuildLoop() {
	for {
		// A closing catalogue interrupts the coalescing sleep: shutdown
		// must not stall for a generous -rebuild-coalesce window.
		select {
		case <-time.After(c.coalesce):
		case <-c.closeCh:
		}
		c.mu.Lock()
		if c.built == c.version {
			c.building = false
			// Close waits for building to drop, not only for built to catch
			// up, so it cannot return while this goroutine is still alive.
			c.caughtUp.Broadcast()
			c.mu.Unlock()
			return
		}
		c.rebuildLocked() // unlocks c.mu
	}
}

// Close quiesces the catalogue for process shutdown: it drives any
// committed-but-unbuilt batches into a final epoch synchronously (so a
// mutation already acknowledged with 202 is never lost un-built), waits
// out the background rebuilder goroutine, and rejects all later
// mutations with ErrClosed. Idempotent and safe to call concurrently;
// readers may keep serving from the final epoch afterwards.
func (c *Catalog) Close() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.closeCh) // wakes the rebuilder out of its coalescing sleep
	}
	// Build leftover batches on this goroutine rather than waiting for the
	// (possibly sleeping) rebuilder. rebuildLocked tolerates racing
	// builders: whichever covers the target version first wins, the other
	// build is discarded.
	for c.built < c.version {
		c.rebuildLocked() // unlocks c.mu
		c.mu.Lock()
	}
	for c.building {
		c.caughtUp.Wait()
	}
	c.mu.Unlock()
}

// rebuildLocked snapshots the item set (or, for delta-eligible change
// sets, just the pending mutations), builds the next epoch outside the
// lock, swaps it in, and notifies subscribers. Called with c.mu held;
// returns with it released. Concurrent synchronous mutators may build in
// parallel; epoch IDs are assigned at install time under the lock, and a
// build whose target version another build has already covered is
// discarded rather than swapped in out of order.
func (c *Catalog) rebuildLocked() {
	target := c.version
	parent := c.cur.Load()
	var muts []deltaMut
	if c.deltaMax > 0 && len(c.pending) > 0 && len(c.pending) <= c.deltaMax {
		muts = c.deltaPlanLocked()
	}
	var items []feature.Item
	var stable []int
	if muts == nil {
		items, stable = c.denseItemsLocked()
	}
	c.mu.Unlock()

	var ep *Epoch
	var cs *ChangeSet
	var err error
	delta := false
	fellBack := false
	skyInc, skyRec := false, false
	partInc, partRec := false, false
	if muts != nil {
		if ep, cs, err = buildEpochFrom(parent, muts, c.maxSize); err == nil {
			delta = true
			ep.Index.ConfigurePartition(c.partClusters, c.partStats)
			skyInc, skyRec = maintainHeads(parent, ep, cs)
			partInc, partRec = maintainPartition(parent, ep, cs, c.partClusters, c.partImbalance)
		} else {
			// The delta path is never load-bearing for correctness: any
			// failure falls back to the full rebuild. Re-snapshot (and
			// re-target) because mutations may have landed meanwhile.
			fellBack = true
			c.mu.Lock()
			target = c.version
			items, stable = c.denseItemsLocked()
			c.mu.Unlock()
		}
	}
	if !delta {
		if ep, err = buildEpoch(items, stable, c.profile, c.maxSize); err == nil {
			ep.Index.ConfigurePartition(c.partClusters, c.partStats)
		}
		cs = &ChangeSet{Parent: parent.ID, Full: true}
	}

	c.mu.Lock()
	c.rebuilds++
	if delta {
		c.deltas++
	} else {
		c.fulls++
	}
	if fellBack {
		c.deltaFalls++
	}
	if skyInc {
		c.skylineInc++
	}
	if skyRec {
		c.skylineRec++
	}
	if partInc {
		c.partInc++
	}
	if partRec {
		c.partRec++
	}
	installed := false
	if err != nil {
		// Unreachable with validated batches; keep serving the old epoch.
		// built still advances below so Flush and ?wait=1 cannot hang on a
		// batch that will never build — the failure is surfaced through
		// Stats.BuildErrors/LastError instead of a wedged rebuild loop.
		// pending is deliberately not pruned: the installed epoch still
		// covers only curVersion, so those IDs remain the delta work list.
		c.buildErrs++
		c.lastErr = err
	} else if target > c.built {
		if delta && ep.Space == parent.Space && c.cur.Load() == parent {
			// The change set netted out to nothing versus the epoch that
			// is still installed: keep it — and its ID — so epoch-keyed
			// result caches and snapshot pools stay valid; only mark the
			// target version covered. (If a racing synchronous build
			// installed a different epoch since our snapshot, its content
			// may not match our target version, so fall through and swap
			// our shell in normally.)
			c.curVersion = target
			prunePending(c.pending, target)
		} else {
			c.nextEpoch++
			ep.ID = c.nextEpoch
			c.cur.Store(ep)
			c.curVersion = target
			prunePending(c.pending, target)
			installed = true
		}
	}
	if target > c.built {
		c.built = target
	}
	subs := append([]func(*Epoch, *ChangeSet){}, c.subs...)
	if c.built == c.version {
		c.caughtUp.Broadcast()
	}
	c.mu.Unlock()
	if installed {
		for _, fn := range subs {
			fn(ep, cs)
		}
	}
}

// prunePending drops pending entries covered by the newly installed
// version; later changes stay on the delta work list.
func prunePending(pending map[int]uint64, upTo uint64) {
	for id, ver := range pending {
		if ver <= upTo {
			delete(pending, id)
		}
	}
}

// deltaMut is one stable ID's pending change: the authoritative item as
// of the snapshot (when it exists) or a deletion marker.
type deltaMut struct {
	stable int
	item   feature.Item
	exists bool
}

// deltaPlanLocked snapshots the pending change set for a delta build,
// sorted by stable ID. Requires c.mu. Item value slices are shared with
// the authoritative map, which never mutates them in place.
func (c *Catalog) deltaPlanLocked() []deltaMut {
	muts := make([]deltaMut, 0, len(c.pending))
	for id := range c.pending {
		it, ok := c.items[id]
		muts = append(muts, deltaMut{stable: id, item: it, exists: ok})
	}
	slices.SortFunc(muts, func(a, b deltaMut) int { return cmp.Compare(a.stable, b.stable) })
	return muts
}

// buildEpochFrom derives the next epoch from its parent by applying the
// pending change set instead of rebuilding from scratch: the feature
// space reuses per-dimension normalizer state the batch does not touch
// (feature.NewSpaceFrom) and the search index splices the batch into the
// parent's sorted lists (search.NewIndexFrom), so the build costs
// O(batch·log n) plus O(n) copying rather than O(n log n) sorting. The
// result is bit-identical to buildEpoch over the same authoritative set —
// the delta property and fuzz suites assert it.
func buildEpochFrom(parent *Epoch, muts []deltaMut, maxSize int) (*Epoch, *ChangeSet, error) {
	pm := parent.ids
	pItems := parent.Space.Items
	// Filter no-ops: IDs whose pending churn nets out to the item the
	// parent epoch already carries (absent before and after, or an upsert
	// rewriting identical values and name — a rename alone must rebuild,
	// or served slates would keep resolving the stale name).
	eff := make([]deltaMut, 0, len(muts))
	adds, dels := 0, 0
	sameIDs := true // every effective change replaces an existing item in place
	for _, m := range muts {
		pd, had := pm.DenseID(m.stable)
		if !had && !m.exists {
			continue
		}
		if had && m.exists && pItems[pd].Name == m.item.Name && valuesEqual(pItems[pd].Values, m.item.Values) {
			continue
		}
		eff = append(eff, m)
		if m.exists {
			adds++
		}
		if had {
			dels++
		}
		if !had || !m.exists {
			sameIDs = false
		}
	}
	if len(eff) == 0 {
		// The change set netted out to nothing: the parent's immutable
		// state is exactly the next epoch's. The install path recognizes
		// the shared Space pointer and keeps the parent epoch installed —
		// no swap, no cache invalidation — while still marking the target
		// version covered. The empty ChangeSet matters only if a racing
		// build forces this shell to install under a fresh ID: content is
		// still bit-identical to the parent, so heads and partition carry
		// over unchanged.
		return &Epoch{Space: parent.Space, Index: parent.Index, ids: pm},
			&ChangeSet{Parent: parent.ID}, nil
	}
	// Merge the parent's stable-ordered dense items with the mutation set,
	// assigning new dense IDs and recording the translation the index
	// splice needs: remap for carried items, added (plus its value rows and
	// the removed ones) for everything else.
	n := len(pItems) - dels + adds
	items := make([]feature.Item, 0, n)
	stable := make([]int, 0, n)
	remap := make([]int32, len(pItems))
	added := make([]int32, 0, adds)
	removedRows := make([][]float64, 0, dels)
	addedRows := make([][]float64, 0, adds)
	place := func(it feature.Item, sid int) int32 {
		nd := int32(len(items))
		it.ID = int(nd)
		items = append(items, it)
		stable = append(stable, sid)
		return nd
	}
	oldStable := pm.stable
	dirty := make([]int32, 0, dels)
	i, j := 0, 0
	for i < len(oldStable) || j < len(eff) {
		switch {
		case j >= len(eff) || (i < len(oldStable) && oldStable[i] < eff[j].stable):
			remap[i] = place(pItems[i], oldStable[i]) // carried unchanged
			i++
		case i >= len(oldStable) || oldStable[i] > eff[j].stable:
			// Brand-new stable ID (pure deletions of absent IDs were
			// filtered above, so eff[j].exists holds here).
			added = append(added, place(eff[j].item, eff[j].stable))
			addedRows = append(addedRows, eff[j].item.Values)
			j++
		default: // same stable ID: replaced or deleted
			remap[i] = -1
			dirty = append(dirty, int32(i))
			removedRows = append(removedRows, pItems[i].Values)
			if eff[j].exists {
				added = append(added, place(eff[j].item, eff[j].stable))
				addedRows = append(addedRows, eff[j].item.Values)
			}
			i++
			j++
		}
	}
	space, err := feature.NewSpaceFrom(parent.Space, items, removedRows, addedRows)
	if err != nil {
		return nil, nil, fmt.Errorf("catalog: delta-building epoch over %d items: %w", len(items), err)
	}
	ids := pm // a reprice-only batch leaves the stable→dense assignment intact
	if !sameIDs {
		ids = &IDMap{stable: stable, dense: make(map[int]int, len(stable)), hash: IDMapHash(stable)}
		for i, s := range stable {
			ids.dense[s] = i
		}
	}
	cs := &ChangeSet{Parent: parent.ID, Dirty: dirty, Fresh: added, Remap: remap}
	return &Epoch{Space: space, Index: search.NewIndexFrom(parent.Index, space, remap, added), ids: ids}, cs, nil
}

// maintainHeads carries the parent epoch's non-dominated head set (the
// dominance-pruning frontier, see search.Index.Heads) across a delta
// build. Lazy by design: nothing happens until a monotone-utility search
// first materializes the set on some epoch; from then on delta builds keep
// it alive incrementally — inserts cost O(|batch|·|skyline|) dominance
// checks — and only the removal or replacement of a head item (which may
// expose items it alone dominated) forces a from-scratch recompute.
// Returns which path ran, for the Stats counters.
func maintainHeads(parent, ep *Epoch, cs *ChangeSet) (inc, rec bool) {
	if ep.Index == parent.Index {
		return false, false // no-op change set: the set is already shared
	}
	ph := parent.Index.PeekHeads()
	if ph == nil {
		return false, false
	}
	if ns, ok := ph.Apply(ep.Space, cs.Remap, cs.Dirty, cs.Fresh); ok {
		ep.Index.SetHeads(ns)
		return true, false
	}
	ep.Index.SetHeads(skyline.Heads(ep.Space))
	return false, true
}

// maintainPartition carries the parent epoch's sketch-refine partition
// (see search.Index.PeekPartition) across a delta build, mirroring
// maintainHeads' lazy contract: nothing happens until a search first
// materializes the partition on some epoch; from then on delta builds
// assign new items to their nearest clusters and rescan only touched
// cluster bounds. A re-cluster from scratch runs when incremental
// maintenance refuses (no representative survived to anchor assignment)
// or drift pushed the imbalance past maxImbalance. Returns which path
// ran, for the Stats counters.
func maintainPartition(parent, ep *Epoch, cs *ChangeSet, clusters int, maxImbalance float64) (inc, rec bool) {
	if ep.Index == parent.Index {
		return false, false // no-op change set: the partition is already shared
	}
	pp := parent.Index.PeekPartition()
	if pp == nil {
		return false, false
	}
	if np, ok := pp.Apply(ep.Space, cs.Remap, cs.Dirty, cs.Fresh); ok && np.Imbalance() <= maxImbalance {
		ep.Index.SetPartition(np)
		return true, false
	}
	np := partition.Build(ep.Space, clusters)
	np.Gen = pp.Gen + 1
	ep.Index.SetPartition(np)
	return false, true
}

// valuesEqual compares raw value rows bitwise, so nulls (NaN) compare
// equal and an upsert rewriting identical values is recognized as a no-op.
func valuesEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// build constructs an epoch from the current authoritative set (used for
// the initial synchronous build).
func (c *Catalog) build(id uint64) (*Epoch, error) {
	c.mu.Lock()
	items, stable := c.denseItemsLocked()
	c.mu.Unlock()
	ep, err := buildEpoch(items, stable, c.profile, c.maxSize)
	if err != nil {
		return nil, err
	}
	ep.Index.ConfigurePartition(c.partClusters, c.partStats)
	ep.ID = id
	return ep, nil
}

// denseItemsLocked compacts the authoritative map into a dense slice
// ordered by stable ID. Item.ID is rewritten to the dense index (the
// positional convention the rest of the system relies on); stable[i] keeps
// dense item i's catalogue key. Requires c.mu.
func (c *Catalog) denseItemsLocked() (dense []feature.Item, stable []int) {
	stable = make([]int, 0, len(c.items))
	for id := range c.items {
		stable = append(stable, id)
	}
	sort.Ints(stable)
	dense = make([]feature.Item, len(stable))
	for i, id := range stable {
		it := c.items[id] // copy; Values are never mutated in place
		it.ID = i
		dense[i] = it
	}
	return dense, stable
}

// buildEpoch derives the immutable epoch state from a dense item slice.
// The epoch ID is assigned by the caller at install time.
func buildEpoch(items []feature.Item, stable []int, p *feature.Profile, maxSize int) (*Epoch, error) {
	space, err := feature.NewSpace(items, p, maxSize)
	if err != nil {
		return nil, fmt.Errorf("catalog: building epoch over %d items: %w", len(items), err)
	}
	ids := &IDMap{stable: stable, dense: make(map[int]int, len(stable)), hash: IDMapHash(stable)}
	for i, s := range stable {
		ids.dense[s] = i
	}
	return &Epoch{Space: space, Index: search.NewIndex(space), ids: ids}, nil
}

// Flush blocks until the current epoch covers every mutation batch
// committed before the call.
func (c *Catalog) Flush() {
	c.mu.Lock()
	for c.built < c.version {
		c.caughtUp.Wait()
	}
	c.mu.Unlock()
}

// Len reports the authoritative item count (which the current epoch may
// trail while a rebuild is pending).
func (c *Catalog) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Stats returns a point-in-time copy of the counters.
func (c *Catalog) Stats() Stats {
	ep := c.Current()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Epoch:              ep.ID,
		Items:              len(ep.Items()),
		Upserts:            c.upserts,
		Deletes:            c.deletes,
		Batches:            c.batches,
		Rebuilds:           c.rebuilds,
		DeltaBuilds:        c.deltas,
		FullRebuilds:       c.fulls,
		DeltaFallbacks:     c.deltaFalls,
		SkylineIncremental: c.skylineInc,
		SkylineRecomputes:  c.skylineRec,
		BuildErrors:        c.buildErrs,
		Pending:            c.built < c.version,
	}
	st.PartitionIncremental = c.partInc
	st.PartitionReclusters = c.partRec
	if p := ep.Index.PeekPartition(); p != nil {
		st.PartitionClusters = p.K
		st.PartitionImbalance = p.Imbalance()
	}
	st.PartitionSearches = c.partStats.Searches.Load()
	st.SketchSkipped = c.partStats.SketchSkipped.Load()
	st.RefineClustersOpened = c.partStats.ClustersOpened.Load()
	if c.lastErr != nil {
		st.LastError = c.lastErr.Error()
	}
	return st
}

// LastError returns the most recent build error (nil in healthy operation).
func (c *Catalog) LastError() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastErr
}

func copyItem(it feature.Item) feature.Item {
	it.Values = append([]float64(nil), it.Values...)
	return it
}

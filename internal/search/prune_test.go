package search

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"toppkg/internal/feature"
)

// pruneValue draws item values with deliberate ties, zeros and nulls — the
// cases where an unsound skip rule would first diverge.
func pruneValue(rng *rand.Rand, nullable bool) float64 {
	switch rng.Intn(8) {
	case 0:
		if nullable {
			return feature.Null
		}
		return 0.5
	case 1:
		return 0
	case 2:
		return 0.5 // frequent duplicate: exact-utility ties
	default:
		return float64(rng.Intn(20)) / 10
	}
}

// pinnedSeeds are counterexamples the randomized property suites found,
// replayed on every run. In both, every cluster representative is null on
// every weighted dimension: the sketch had no cursors, and its degenerate
// path scored packages of the whole space at 0, so the sketch floor was no
// real package's utility and the partitioned search returned 4 of 13 and
// 2 of 5 packages.
var pinnedSeeds = []int64{-6446546783102068094, -6860869241806215414}

// fixedSeedSource seeds the deterministic batch of checkSeeds.
const fixedSeedSource = 1

// checkSeeds runs the seeded property f on pinnedSeeds and then on a batch
// of count seeds drawn from a fixed source. Both are the same on every run,
// so a coverage check taken right after it passes or fails the same way
// every time. Callers follow with a fresh random batch; quick.Check names
// the failing seed, which replays the case.
func checkSeeds(t *testing.T, f func(seed int64) bool, count int) {
	t.Helper()
	for _, seed := range pinnedSeeds {
		if !f(seed) {
			t.Errorf("pinned seed %d fails", seed)
		}
	}
	cfg := &quick.Config{MaxCount: count, Rand: rand.New(rand.NewSource(fixedSeedSource))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// assertSameResult compares two TopK results for bit-identical packages
// and utilities.
func assertSameResult(t *testing.T, got, want Result, label string) bool {
	t.Helper()
	if len(got.Packages) != len(want.Packages) {
		t.Logf("%s: %d vs %d packages", label, len(got.Packages), len(want.Packages))
		return false
	}
	for i := range want.Packages {
		if !slices.Equal(got.Packages[i].Pkg.IDs, want.Packages[i].Pkg.IDs) ||
			got.Packages[i].Utility != want.Packages[i].Utility {
			t.Logf("%s: rank %d: got %v (%v), want %v (%v)", label, i,
				got.Packages[i].Pkg.IDs, got.Packages[i].Utility,
				want.Packages[i].Pkg.IDs, want.Packages[i].Utility)
			return false
		}
	}
	return true
}

// TestDominancePruneExact: on uncapped (exact-mode) runs the dominance
// filter never changes the result — for every agg mix, weight signs that
// make the utility monotone (where the filter engages) and ones that do
// not (where it must gate itself off), nulls, ties, and k up to the size
// of the whole candidate heap. Both paper mode and ExpandAll are covered.
func TestDominancePruneExact(t *testing.T) {
	aggs := []feature.Agg{feature.AggSum, feature.AggMax, feature.AggMin, feature.AggAvg, feature.AggNull}
	engaged := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		m := 1 + rng.Intn(4)
		dims := make([]feature.Agg, m)
		for d := range dims {
			dims[d] = aggs[rng.Intn(len(aggs))]
		}
		nullable := rng.Intn(2) == 0
		items := make([]feature.Item, n)
		for i := range items {
			vals := make([]float64, m)
			for j := range vals {
				vals[j] = pruneValue(rng, nullable)
			}
			items[i] = feature.Item{ID: i, Values: vals}
		}
		p := feature.SimpleProfile(dims...)
		maxSize := 1 + rng.Intn(3)
		sp, err := feature.NewSpace(items, p, maxSize)
		if err != nil {
			t.Log(err)
			return false
		}
		w := make([]float64, m)
		for d := range w {
			mag := rng.Float64()
			if rng.Intn(5) == 0 {
				mag = 0
			}
			switch {
			case rng.Intn(4) == 0: // wrong-sign weight: filter must gate off
				switch dims[d] {
				case feature.AggMin:
					w[d] = mag
				default:
					w[d] = -mag
				}
			case dims[d] == feature.AggMin:
				w[d] = -mag
			default:
				w[d] = mag
			}
		}
		u, err := feature.NewUtility(p, w)
		if err != nil {
			t.Log(err)
			return false
		}
		k := 1 + rng.Intn(n) // up to catalogue size
		ix := NewIndex(sp)
		for _, expandAll := range []bool{false, true} {
			opts := Options{K: k, MaxQueue: -1, ExpandAll: expandAll}
			pruned, err := ix.TopK(u, opts)
			if err != nil {
				t.Log(err)
				return false
			}
			opts.DisableDominancePrune = true
			plain, err := ix.TopK(u, opts)
			if err != nil {
				t.Log(err)
				return false
			}
			if plain.DomPruned != 0 {
				t.Log("disabled run reported skips")
				return false
			}
			if !assertSameResult(t, pruned, plain, "exact") {
				return false
			}
			engaged += pruned.DomPruned
		}
		return true
	}
	checkSeeds(t, f, 150)
	if engaged == 0 {
		t.Error("dominance filter never skipped an item across the fixed-seed trials — the suite is not exercising it")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestDominancePruneMatchesBruteForce: on monotone profiles the pruned
// exact search still matches the brute-force oracle directly (not just the
// unpruned search).
func TestDominancePruneMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		items := make([]feature.Item, n)
		for i := range items {
			items[i] = feature.Item{ID: i, Values: []float64{
				pruneValue(rng, false), pruneValue(rng, false), pruneValue(rng, false)}}
		}
		p := feature.SimpleProfile(feature.AggSum, feature.AggMax, feature.AggMin)
		maxSize := 1 + rng.Intn(3)
		sp, err := feature.NewSpace(items, p, maxSize)
		if err != nil {
			return false
		}
		w := []float64{rng.Float64(), rng.Float64(), -rng.Float64()}
		k := 1 + rng.Intn(4)
		return checkAgainstBruteForce(t, sp, w, k, Options{MaxQueue: -1, ExpandAll: true})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDominancePruneGatesOffNonMonotone: a weighted avg dimension (or a
// wrong-sign weight) must keep the filter disengaged even on beam runs.
func TestDominancePruneGatesOffNonMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	items := make([]feature.Item, 40)
	for i := range items {
		items[i] = feature.Item{ID: i, Values: []float64{rng.Float64(), rng.Float64()}}
	}
	sp, err := feature.NewSpace(items, feature.SimpleProfile(feature.AggSum, feature.AggAvg), 3)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(sp)
	u, err := feature.NewUtility(sp.Profile, []float64{1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.TopK(u, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.DomPruned != 0 {
		t.Fatalf("filter engaged on a weighted-avg profile: %d skips", res.DomPruned)
	}
	if ix.PeekHeads() != nil {
		t.Fatal("head set materialized for a non-monotone run")
	}
}

// TestDominancePruneBeamSpeedup exercises the beam path end to end on a
// monotone profile: the filter engages, skips items, and still returns
// valid packages (beam results are best-effort by contract; here the
// catalogue is benign enough that the top package must match exactly).
func TestDominancePruneBeamSpeedup(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	items := make([]feature.Item, 2000)
	for i := range items {
		items[i] = feature.Item{ID: i, Values: []float64{rng.Float64(), rng.Float64()}}
	}
	sp, err := feature.NewSpace(items, feature.SimpleProfile(feature.AggSum, feature.AggMax), 3)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(sp)
	u, err := feature.NewUtility(sp.Profile, []float64{1, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := ix.TopK(u, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ix.TopK(u, Options{K: 5, DisableDominancePrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.DomPruned == 0 {
		t.Error("filter never engaged on a 2000-item monotone beam run")
	}
	if len(pruned.Packages) != len(plain.Packages) {
		t.Fatalf("package counts differ: %d vs %d", len(pruned.Packages), len(plain.Packages))
	}
	if pruned.Packages[0].Utility != plain.Packages[0].Utility {
		t.Errorf("top utility: pruned %v vs plain %v", pruned.Packages[0].Utility, plain.Packages[0].Utility)
	}
}

package catalog

import (
	"math/rand"
	"slices"
	"testing"

	"toppkg/internal/feature"
	"toppkg/internal/search"
)

func partItems(n int, seed int64) []feature.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]feature.Item, n)
	for i := range items {
		items[i] = feature.Item{ID: i, Values: []float64{rng.Float64() * 4, rng.Float64() * 4}}
	}
	return items
}

func TestNewRejectsBadPartitionImbalance(t *testing.T) {
	p := feature.SimpleProfile(feature.AggSum, feature.AggMax)
	if _, err := New(Config{Profile: p, MaxPackageSize: 2, Items: partItems(4, 1),
		PartitionReclusterImbalance: 0.5}); err == nil {
		t.Fatal("New accepted an unsatisfiable recluster threshold")
	}
}

// assertPartitionedExact runs the same uncapped search partitioned and
// unpartitioned on the epoch and requires bit-identical results — the
// invariant incremental maintenance must preserve across deltas.
func assertPartitionedExact(t *testing.T, ep *Epoch, u *feature.Utility, k int) {
	t.Helper()
	part, err := ep.Index.TopK(u, search.Options{K: k, MaxQueue: -1})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ep.Index.TopK(u, search.Options{K: k, MaxQueue: -1, DisablePartition: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Packages) != len(plain.Packages) {
		t.Fatalf("partitioned %d packages != plain %d", len(part.Packages), len(plain.Packages))
	}
	for i := range part.Packages {
		if part.Packages[i].Utility != plain.Packages[i].Utility ||
			!slices.Equal(part.Packages[i].Pkg.IDs, plain.Packages[i].Pkg.IDs) {
			t.Fatalf("rank %d: partitioned %v (%.9f) != plain %v (%.9f)",
				i, part.Packages[i].Pkg.IDs, part.Packages[i].Utility,
				plain.Packages[i].Pkg.IDs, plain.Packages[i].Utility)
		}
	}
}

// TestPartitionMaintainedAcrossDeltas mirrors the skyline test: once a
// monotone search materializes the partition, delta batches carry it
// forward incrementally (same Gen, new items assigned, exact search
// results preserved), and the Stats counters /healthz surfaces record the
// incremental/recluster split.
func TestPartitionMaintainedAcrossDeltas(t *testing.T) {
	p := feature.SimpleProfile(feature.AggSum, feature.AggMax)
	c, err := New(Config{Profile: p, MaxPackageSize: 2, Items: partItems(16, 2),
		Coalesce: -1, DeltaThreshold: 1 << 20, PartitionClusters: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	u, err := feature.NewUtility(p, []float64{1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ep := c.Current()
	if _, err := ep.Index.TopK(u, search.Options{K: 2, MaxQueue: -1}); err != nil {
		t.Fatal(err)
	}
	pp := ep.Index.PeekPartition()
	if pp == nil {
		t.Fatal("monotone search did not materialize the partition")
	}

	for i := 0; i < 3; i++ {
		id := 100 + i
		if err := c.Upsert([]feature.Item{{ID: id, Values: []float64{4.5, float64(i)}}}); err != nil {
			t.Fatal(err)
		}
		ep = c.Current()
		np := ep.Index.PeekPartition()
		if np == nil {
			t.Fatalf("insert %d: partition not carried to the new epoch", id)
		}
		if np.Gen != pp.Gen {
			t.Fatalf("insert %d: incremental maintenance changed Gen %d -> %d", id, pp.Gen, np.Gen)
		}
		if len(np.Assign) != len(ep.Items()) {
			t.Fatalf("insert %d: Assign covers %d of %d items", id, len(np.Assign), len(ep.Items()))
		}
		assertPartitionedExact(t, ep, u, 3)
	}
	st := c.Stats()
	if st.PartitionIncremental != 3 || st.PartitionReclusters != 0 {
		t.Fatalf("insert-only batches: incremental=%d reclusters=%d, want 3/0",
			st.PartitionIncremental, st.PartitionReclusters)
	}
	if st.PartitionClusters != pp.K {
		t.Fatalf("stats clusters=%d, want %d", st.PartitionClusters, pp.K)
	}
	if st.PartitionSearches == 0 {
		t.Fatal("partition-engaged searches not counted")
	}
}

// TestPartitionReclusterOnImbalance: a threshold of 1 tolerates no drift,
// so the first delta build re-clusters from scratch, bumping Gen.
func TestPartitionReclusterOnImbalance(t *testing.T) {
	p := feature.SimpleProfile(feature.AggSum, feature.AggMax)
	c, err := New(Config{Profile: p, MaxPackageSize: 2, Items: partItems(16, 3),
		Coalesce: -1, DeltaThreshold: 1 << 20, PartitionClusters: 3,
		PartitionReclusterImbalance: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	u, err := feature.NewUtility(p, []float64{1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ep := c.Current()
	if _, err := ep.Index.TopK(u, search.Options{K: 2, MaxQueue: -1}); err != nil {
		t.Fatal(err)
	}
	pp := ep.Index.PeekPartition()
	if pp == nil {
		t.Fatal("partition not materialized")
	}
	if err := c.Upsert([]feature.Item{{ID: 200, Values: []float64{9, 9}}}); err != nil {
		t.Fatal(err)
	}
	ep = c.Current()
	np := ep.Index.PeekPartition()
	if np == nil {
		t.Fatal("partition dropped instead of re-clustered")
	}
	if np.Gen != pp.Gen+1 {
		t.Fatalf("recluster Gen = %d, want %d", np.Gen, pp.Gen+1)
	}
	if st := c.Stats(); st.PartitionReclusters != 1 {
		t.Fatalf("reclusters=%d, want 1", st.PartitionReclusters)
	}
	assertPartitionedExact(t, ep, u, 3)
}

// Benchmarks regenerating the cost core of every figure in the paper's
// evaluation (§5), plus ablations of this reproduction's design choices.
// Run with: go test -bench=. -benchmem
//
// Mapping (see DESIGN.md §3 and EXPERIMENTS.md):
//
//	Figure 4 → BenchmarkFig4Samplers            (sampler draw cost, 2-D)
//	Figure 5 → BenchmarkFig5ConstraintCheck     (full vs reduced constraints)
//	Figure 6 → BenchmarkFig6SampleGen, BenchmarkFig6TopKPkg
//	§5.4     → BenchmarkQualityRanking          (EXP/TKP/MPO aggregation)
//	Figure 7 → BenchmarkFig7Maintenance         (naive/TA/hybrid × violation mix)
//	Figure 8 → BenchmarkFig8ElicitationRound    (one recommend+click round)
//	ablations → BenchmarkAblation*
package toppkg_test

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"toppkg/internal/catalog"
	"toppkg/internal/core"
	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/gaussmix"
	"toppkg/internal/maintain"
	"toppkg/internal/pkgspace"
	"toppkg/internal/prefgraph"
	"toppkg/internal/ranking"
	"toppkg/internal/sampling"
	"toppkg/internal/search"
	"toppkg/internal/simulate"
	"toppkg/internal/topk"
)

// benchProfile mirrors the experiment harness: aggregations cycling over
// features.
func benchProfile(m int) *feature.Profile {
	cycle := []feature.Agg{feature.AggSum, feature.AggAvg, feature.AggMax, feature.AggMin}
	aggs := make([]feature.Agg, m)
	for i := range aggs {
		aggs[i] = cycle[i%len(cycle)]
	}
	return feature.SimpleProfile(aggs...)
}

func benchSpace(b *testing.B, kind string, n, m, phi int) *feature.Space {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	items, err := dataset.Generate(kind, n, m, rng)
	if err != nil {
		b.Fatal(err)
	}
	sp, err := feature.NewSpace(items, benchProfile(m), phi)
	if err != nil {
		b.Fatal(err)
	}
	return sp
}

// benchConstraints builds `prefs` constraints consistent with a hidden
// weight vector over random packages.
func benchConstraints(b *testing.B, sp *feature.Space, prefs int, seed int64) []prefgraph.Constraint {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, sp.Dims())
	for i := range w {
		w[i] = rng.Float64()*2 - 1
	}
	g := prefgraph.New()
	added := 0
	for attempts := 0; added < prefs && attempts < prefs*30; attempts++ {
		p1 := randomPkg(sp, rng)
		p2 := randomPkg(sp, rng)
		v1, v2 := pkgspace.Vector(sp, p1), pkgspace.Vector(sp, p2)
		u1, u2 := feature.Dot(w, v1), feature.Dot(w, v2)
		if u1 == u2 {
			continue
		}
		if u1 < u2 {
			p1, p2, v1, v2 = p2, p1, v2, v1
		}
		if err := g.AddPreference(p1, v1, p2, v2); err == nil {
			added++
		}
	}
	return g.Constraints(true)
}

func randomPkg(sp *feature.Space, rng *rand.Rand) pkgspace.Package {
	size := 1 + rng.Intn(sp.MaxSize)
	ids := make([]int, 0, size)
	seen := map[int]bool{}
	for len(ids) < size {
		id := rng.Intn(len(sp.Items))
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	return pkgspace.New(ids...)
}

// --- Figure 4: sampler cost to produce 100 valid 2-D samples. ---

func BenchmarkFig4Samplers(b *testing.B) {
	sp := benchSpace(b, "uni", 1000, 2, 3)
	cs := benchConstraints(b, sp, 2, 4)
	v := sampling.NewValidator(2, cs)
	prior := gaussmix.DefaultPrior(2, 1, rand.New(rand.NewSource(2)))
	for _, s := range []sampling.Sampler{
		&sampling.Rejection{Prior: prior, V: v},
		&sampling.Importance{Prior: prior, V: v},
		&sampling.MCMC{Prior: prior, V: v},
	} {
		b.Run(s.Name(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Sample(rng, 100); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 5: constraint checking, full vs transitively reduced. ---

func BenchmarkFig5ConstraintCheck(b *testing.B) {
	sp := benchSpace(b, "uni", 2000, 5, 3)
	rng := rand.New(rand.NewSource(5))
	w := make([]float64, 5)
	for i := range w {
		w[i] = rng.Float64()*2 - 1
	}
	g := prefgraph.New()
	for added := 0; added < 2000; {
		p1, p2 := randomPkg(sp, rng), randomPkg(sp, rng)
		v1, v2 := pkgspace.Vector(sp, p1), pkgspace.Vector(sp, p2)
		if feature.Dot(w, v1) == feature.Dot(w, v2) {
			continue
		}
		if feature.Dot(w, v1) < feature.Dot(w, v2) {
			p1, p2, v1, v2 = p2, p1, v2, v1
		}
		if err := g.AddPreference(p1, v1, p2, v2); err == nil {
			added++
		}
	}
	prior := gaussmix.DefaultPrior(5, 1, rng)
	draws := make([][]float64, 1000)
	for i := range draws {
		draws[i] = prior.Sample(rng)
	}
	for _, tc := range []struct {
		name    string
		reduced bool
	}{{"full", false}, {"reduced", true}} {
		cs := g.Constraints(tc.reduced)
		v := sampling.NewValidator(5, cs)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportMetric(float64(len(cs)), "constraints")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, d := range draws {
					v.Valid(d, nil)
				}
			}
		})
	}
}

// --- Figure 6: sample generation and Top-k-Pkg per dataset. ---

func BenchmarkFig6SampleGen(b *testing.B) {
	for _, kind := range []string{"uni", "pwr", "cor", "ant", "nba"} {
		sp := benchSpace(b, kind, 20000, 5, 5)
		cs := benchConstraints(b, sp, 20, 6)
		v := sampling.NewValidator(5, cs)
		prior := gaussmix.DefaultPrior(5, 1, rand.New(rand.NewSource(6)))
		for _, s := range []sampling.Sampler{
			&sampling.Rejection{Prior: prior, V: v},
			&sampling.Importance{Prior: prior, V: v},
			&sampling.MCMC{Prior: prior, V: v},
		} {
			b.Run(kind+"/"+s.Name(), func(b *testing.B) {
				rng := rand.New(rand.NewSource(7))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Sample(rng, 200); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkFig6TopKPkg(b *testing.B) {
	for _, kind := range []string{"uni", "pwr", "cor", "ant", "nba"} {
		sp := benchSpace(b, kind, 20000, 5, 5)
		ix := search.NewIndex(sp)
		rng := rand.New(rand.NewSource(8))
		w := make([]float64, 5)
		for i := range w {
			w[i] = rng.Float64()*2 - 1
		}
		u, err := feature.NewUtility(sp.Profile, w)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kind, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ix.TopK(u, search.Options{K: 5}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- §5.4: ranking-semantics aggregation over a fixed sample pool. ---

func BenchmarkQualityRanking(b *testing.B) {
	sp := benchSpace(b, "nba", 0, 4, 5)
	ix := search.NewIndex(sp)
	rng := rand.New(rand.NewSource(9))
	prior := gaussmix.DefaultPrior(4, 2, rng)
	samples := make([]sampling.Sample, 200)
	for i := range samples {
		samples[i] = sampling.Sample{W: prior.Sample(rng), Q: 1}
	}
	for _, sem := range []ranking.Semantics{ranking.EXP, ranking.TKP, ranking.MPO} {
		b.Run(sem.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ranking.Rank(ix, samples, sem, ranking.Options{K: 5,
					Search: search.Options{MaxQueue: 64, MaxAccessed: 300}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 7: maintenance strategies at few vs many violations. ---

func BenchmarkFig7Maintenance(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	const n, d = 10000, 5
	wStar := make([]float64, d)
	for i := range wStar {
		wStar[i] = rng.Float64()*2 - 1
	}
	posterior := gaussmix.Gaussian(wStar, 0.3)
	vecs := make([][]float64, n)
	for i := range vecs {
		vecs[i] = posterior.Sample(rng)
	}
	pool := topk.NewPool(vecs)

	sp := benchSpace(b, "uni", 2000, d, 3)
	// A consistent (few violators) and a reversed (many violators) query:
	// the reversed orientation of a clear preference invalidates most of
	// the wStar-concentrated pool.
	var fewQ, manyQ []float64
	for guard := 0; (fewQ == nil || manyQ == nil) && guard < 100000; guard++ {
		p1, p2 := randomPkg(sp, rng), randomPkg(sp, rng)
		v1, v2 := pkgspace.Vector(sp, p1), pkgspace.Vector(sp, p2)
		u1, u2 := feature.Dot(wStar, v1), feature.Dot(wStar, v2)
		if u1 == u2 {
			continue
		}
		if u1 < u2 {
			v1, v2 = v2, v1
		}
		countViol := func(q []float64) int {
			viol := 0
			for i := 0; i < n; i++ {
				if pool.Dot(i, q) > 0 {
					viol++
				}
			}
			return viol
		}
		consistent := maintain.Query(prefgraph.Constraint{Diff: diffVec(v1, v2)})
		if fewQ == nil && countViol(consistent) < n/100 {
			fewQ = consistent
		}
		reversed := maintain.Query(prefgraph.Constraint{Diff: diffVec(v2, v1)})
		if manyQ == nil && countViol(reversed) > n/3 {
			manyQ = reversed
		}
	}
	if fewQ == nil || manyQ == nil {
		b.Fatal("could not construct benchmark queries")
	}
	for _, tc := range []struct {
		name string
		q    []float64
	}{{"few_violators", fewQ}, {"many_violators", manyQ}} {
		for _, c := range []maintain.Checker{
			&maintain.Naive{P: pool},
			&maintain.TA{P: pool},
			&maintain.Hybrid{P: pool, Gamma: 0.025},
		} {
			b.Run(tc.name+"/"+c.Name(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.Violators(tc.q)
				}
			})
		}
	}
}

func diffVec(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// --- Figure 8: one full recommend+click elicitation round on NBA. ---

// fig8Engine builds the Figure-8 serving engine; cacheSize -1 is the
// pre-batching baseline, 0 the cached pipeline default.
func fig8Engine(b *testing.B, rng *rand.Rand, cacheSize int) *core.Engine {
	b.Helper()
	items := dataset.NBASelect(dataset.NBA(rng), 5)
	eng, err := core.New(core.Config{
		Items:           items,
		Profile:         benchProfile(5),
		MaxPackageSize:  5,
		K:               5,
		RandomCount:     5,
		SampleCount:     200,
		Seed:            12,
		Parallelism:     -1,
		Search:          search.Options{MaxQueue: 64, MaxAccessed: 300},
		SearchCacheSize: cacheSize,
	})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// reportPipelineMetrics attaches the batching counters the BENCH_*.json
// trajectory tracks: cache hits and searches per op, and the dedup ratio.
// base is the counter snapshot taken before the timed loop, so untimed
// warm-up rounds do not skew the per-op numbers.
func reportPipelineMetrics(b *testing.B, eng *core.Engine, base core.Stats) {
	st := eng.Stats()
	samples := st.RankSamples - base.RankSamples
	if samples == 0 {
		return
	}
	b.ReportMetric(float64(st.RankCacheHits-base.RankCacheHits)/float64(b.N), "hits/op")
	b.ReportMetric(float64(st.RankSearches-base.RankSearches)/float64(b.N), "searches/op")
	distinct := st.RankDistinct - base.RankDistinct
	b.ReportMetric(float64(samples-distinct)/float64(samples), "dedup")
}

var fig8Variants = []struct {
	name      string
	cacheSize int
}{
	{"nocache", -1}, // baseline: every sample searched every round
	{"cached", 0},   // batched pipeline: dedup + shared result cache
}

func BenchmarkFig8ElicitationRound(b *testing.B) {
	for _, tc := range fig8Variants {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(11))
			eng := fig8Engine(b, rng, tc.cacheSize)
			user := simulate.NewRandomUser(eng.Space().Profile, rng)
			base := eng.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				slate, err := eng.Recommend()
				if err != nil {
					b.Fatal(err)
				}
				pick := user.Choose(eng.Space(), slate.All, rng)
				if err := eng.Click(slate.All[pick], slate.All); err != nil {
					b.Fatal(err)
				}
			}
			reportPipelineMetrics(b, eng, base)
		})
	}
}

// BenchmarkFig8PostFeedbackRecommend isolates the batching PR's acceptance
// metric: the cost of re-running Recommend after a feedback round, when
// most pool samples survived and (in the cached variant) reuse last
// round's packages. The click that invalidates part of the pool runs
// outside the timer.
func BenchmarkFig8PostFeedbackRecommend(b *testing.B) {
	for _, tc := range fig8Variants {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(11))
			eng := fig8Engine(b, rng, tc.cacheSize)
			user := simulate.NewRandomUser(eng.Space().Profile, rng)
			// Warm-up round: draw the pool and learn one click.
			slate, err := eng.Recommend()
			if err != nil {
				b.Fatal(err)
			}
			base := eng.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				pick := user.Choose(eng.Space(), slate.All, rng)
				if err := eng.Click(slate.All[pick], slate.All); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				slate, err = eng.Recommend()
				if err != nil {
					b.Fatal(err)
				}
			}
			reportPipelineMetrics(b, eng, base)
		})
	}
}

// --- Live catalogue: recommend throughput under mutation churn. ---

// churnMutationInterval paces the background mutator: one single-item
// reprice batch per interval, i.e. ~500 nominal mutations/sec — a hot
// admin feed. Each swap invalidates the epoch-keyed result cache, so the
// mutating variant measures the serving cost of churn, not just the
// rebuilds themselves. churnCoalesce is the rebuilder's burst window:
// short enough that swaps land continuously under the recommend loop.
const (
	churnMutationInterval = 2 * time.Millisecond
	churnCoalesce         = 5 * time.Millisecond
)

var churnVariants = []struct {
	name   string
	mutate bool
}{
	{"static", false},  // baseline: live catalogue, no mutations (cache stays warm)
	{"mutating", true}, // epochs swap under the recommend loop
}

// BenchmarkChurnRecommend measures Recommend on a live catalogue while a
// background mutator reprices items: the swap path's serving overhead.
// The static variant is the same live stack with no mutations, so the
// static/mutating pair is the churn comparison benchjson records.
func BenchmarkChurnRecommend(b *testing.B) {
	for _, tc := range churnVariants {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(21))
			items := dataset.UNI(500, 5, rng)
			cat, err := catalog.New(catalog.Config{
				Profile:        benchProfile(5),
				MaxPackageSize: 5,
				Items:          items,
				Coalesce:       churnCoalesce,
			})
			if err != nil {
				b.Fatal(err)
			}
			sh, err := core.NewLiveShared(core.Config{
				K:           5,
				RandomCount: 5,
				SampleCount: 60,
				Seed:        12,
				Parallelism: -1,
				Search:      search.Options{MaxQueue: 64, MaxAccessed: 120},
			}, cat)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := sh.NewEngine(0)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Recommend(); err != nil { // warm pool + cache
				b.Fatal(err)
			}

			stop := make(chan struct{})
			done := make(chan struct{})
			var mutations atomic.Int64
			if tc.mutate {
				go func() {
					defer close(done)
					mrng := rand.New(rand.NewSource(22))
					tick := time.NewTicker(churnMutationInterval)
					defer tick.Stop()
					for {
						select {
						case <-stop:
							return
						case <-tick.C:
							id := mrng.Intn(len(items))
							err := cat.Upsert([]feature.Item{{
								ID:   id,
								Name: items[id].Name,
								Values: []float64{
									mrng.Float64(), mrng.Float64(), mrng.Float64(),
									mrng.Float64(), mrng.Float64(),
								},
							}})
							if err != nil {
								b.Error(err)
								return
							}
							mutations.Add(1)
						}
					}
				}()
			} else {
				close(done)
			}
			if tc.mutate {
				// Time the steady state, not the warm start: keep serving
				// untimed until enough swaps have landed for the cache to
				// reach its churn equilibrium (hit and re-search rates
				// stable). Measuring from equilibrium also
				// keeps per-op cost roughly uniform, so the framework's
				// iteration-count extrapolation stays accurate.
				for cat.Current().ID < 12 {
					if _, err := eng.Recommend(); err != nil {
						b.Fatal(err)
					}
				}
			}

			startEpoch := cat.Current().ID
			base := eng.Stats()
			mutBase := mutations.Load() // exclude warm-up-period mutations from mut/s
			start := time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Recommend(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			elapsed := time.Since(start)
			close(stop)
			<-done
			reportPipelineMetrics(b, eng, base)
			b.ReportMetric(float64(cat.Current().ID-startEpoch)/float64(b.N), "swaps/op")
			if secs := elapsed.Seconds(); secs > 0 {
				b.ReportMetric(float64(mutations.Load()-mutBase)/secs, "mut/s")
			}
		})
	}
}

// --- Live catalogue: epoch construction, full rebuild vs delta build. ---

// BenchmarkEpochBuild measures producing the next epoch on a large
// catalogue when a small batch mutates. The full variant rebuilds
// feature.Space + search.Index from scratch (DeltaThreshold < 0); the
// delta variant splices the batch into the parent epoch's sorted lists
// and normalizer state (O(batch·log n) plus O(n) copying). Synchronous
// rebuild mode times exactly one build per batch; the full/delta pair is
// the comparison benchjson records.
const (
	epochBuildItems = 10000
	epochBuildBatch = 16
)

func BenchmarkEpochBuild(b *testing.B) {
	for _, tc := range []struct {
		name      string
		threshold int
	}{
		{"full", -1},
		{"delta", epochBuildBatch},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(41))
			items := dataset.UNI(epochBuildItems, 5, rng)
			cat, err := catalog.New(catalog.Config{
				Profile:        benchProfile(5),
				MaxPackageSize: 5,
				Items:          items,
				Coalesce:       -1,
				DeltaThreshold: tc.threshold,
			})
			if err != nil {
				b.Fatal(err)
			}
			batch := make([]feature.Item, epochBuildBatch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := range batch {
					id := (i*epochBuildBatch + j*101) % epochBuildItems
					batch[j] = feature.Item{ID: id, Name: items[id].Name, Values: []float64{
						rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(),
					}}
				}
				b.StartTimer()
				if err := cat.Upsert(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := cat.Stats()
			if tc.threshold > 0 && st.DeltaBuilds == 0 {
				b.Fatal("delta variant never took the delta path")
			}
			b.ReportMetric(float64(st.DeltaBuilds)/float64(b.N), "delta/op")
		})
	}
}

// --- Live catalogue: snapshot restore cost under churn. ---

// BenchmarkChurnRestore measures Restore of a stable-ID (v2) snapshot
// after the catalogue absorbed k mutation batches since the save — the
// remap + vector-recompute + graph-rebuild work every miss-restore pays
// under churn. Each iteration applies churnRestoreBatches batches (a
// rolling delete window, the previous window re-added, reprices) outside
// the timer, then restores the same snapshot against the churned epoch;
// dropped_items/op reports how much learned state the churn cost.
const churnRestoreBatches = 8

func BenchmarkChurnRestore(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	items := dataset.UNI(500, 5, rng)
	cat, err := catalog.New(catalog.Config{
		Profile:        benchProfile(5),
		MaxPackageSize: 5,
		Items:          items,
		Coalesce:       -1, // synchronous: batches outside the timer, deterministic epochs
	})
	if err != nil {
		b.Fatal(err)
	}
	sh, err := core.NewLiveShared(core.Config{
		K:           5,
		RandomCount: 5,
		SampleCount: 60,
		Seed:        12,
		Parallelism: -1,
		Search:      search.Options{MaxQueue: 64, MaxAccessed: 120},
	}, cat)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := sh.NewEngine(0)
	if err != nil {
		b.Fatal(err)
	}
	user := simulate.NewRandomUser(cat.Profile(), rng)
	for round := 0; round < 6; round++ { // accumulate a realistic preference graph
		slate, err := eng.Recommend()
		if err != nil {
			b.Fatal(err)
		}
		pick := user.Choose(slate.Space, slate.All, rng)
		if err := eng.Click(slate.All[pick], slate.All); err != nil {
			b.Fatal(err)
		}
	}
	snap := eng.Snapshot()

	window := func(i int) []int {
		base := (i * 7) % 450
		return []int{base, base + 1, base + 2}
	}
	reprice := func(id int) feature.Item {
		return feature.Item{ID: id, Name: items[id].Name, Values: []float64{
			rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(),
		}}
	}
	var droppedItems, droppedPrefs, edges int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if i > 0 { // the previous window returns, keeping the catalogue size steady
			prev := window(i - 1)
			back := make([]feature.Item, len(prev))
			for j, id := range prev {
				back[j] = reprice(id)
			}
			if err := cat.Upsert(back); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := cat.Delete(window(i)); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < churnRestoreBatches-2; k++ {
			if err := cat.Upsert([]feature.Item{reprice((i*13 + k*37) % 500)}); err != nil {
				b.Fatal(err)
			}
		}
		restored, err := sh.NewEngine(0)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := restored.Restore(snap); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		di, dp := restored.RestoreDrops()
		droppedItems += di
		droppedPrefs += dp
		edges += restored.Graph().Edges()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(droppedItems)/float64(b.N), "dropped_items/op")
	b.ReportMetric(float64(droppedPrefs)/float64(b.N), "dropped_prefs/op")
	b.ReportMetric(float64(edges)/float64(b.N), "edges/op")
}

// --- Ablation: the paper's line-3 pruning vs exact ExpandAll. ---

func BenchmarkAblationExpandAll(b *testing.B) {
	sp := benchSpace(b, "uni", 20000, 5, 5)
	ix := search.NewIndex(sp)
	u, err := feature.NewUtility(sp.Profile, []float64{0.6, -0.4, 0.5, -0.2, 0.3})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts search.Options
	}{
		{"paper_pruning", search.Options{K: 5}},
		{"expand_all", search.Options{K: 5, ExpandAll: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ix.TopK(u, tc.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation: bound-based pruning of the expandable queue. ---

func BenchmarkAblationBoundPrune(b *testing.B) {
	sp := benchSpace(b, "cor", 2000, 4, 4)
	ix := search.NewIndex(sp)
	u, err := feature.NewUtility(sp.Profile, []float64{0.7, 0.3, 0.4, -0.3})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts search.Options
	}{
		{"prune_on", search.Options{K: 5, ExpandAll: true}},
		{"prune_off", search.Options{K: 5, ExpandAll: true, DisableBoundPrune: true, MaxQueue: 20000}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ix.TopK(u, tc.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation: flat grid vs quadtree center for importance sampling. ---

func BenchmarkAblationCenterFinding(b *testing.B) {
	sp := benchSpace(b, "uni", 2000, 4, 3)
	cs := benchConstraints(b, sp, 50, 13)
	v := sampling.NewValidator(4, cs)
	prior := gaussmix.DefaultPrior(4, 1, rand.New(rand.NewSource(14)))
	for _, tc := range []struct {
		name     string
		quadtree bool
	}{{"grid", false}, {"quadtree", true}} {
		is := &sampling.Importance{Prior: prior, V: v, UseQuadtree: tc.quadtree, GridRes: 8}
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := is.Center(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation: sample maintenance vs the EM-refit baseline (§3.1). ---

func BenchmarkAblationPosteriorUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	const n, d = 2000, 4
	prior := gaussmix.DefaultPrior(d, 2, rng)
	samples := make([]sampling.Sample, n)
	for i := range samples {
		samples[i] = sampling.Sample{W: prior.Sample(rng), Q: 1}
	}
	sp := benchSpace(b, "uni", 1000, d, 3)
	cs := benchConstraints(b, sp, 1, 16)
	c := cs[0]

	b.Run("maintenance", func(b *testing.B) {
		v := sampling.NewValidator(d, cs)
		s := &sampling.Rejection{Prior: prior, V: v}
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			pool := maintain.NewPool(append([]sampling.Sample(nil), samples...))
			rng := rand.New(rand.NewSource(17))
			b.StartTimer()
			if _, _, err := pool.Apply(c, s, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("em_refit", func(b *testing.B) {
		xs := sampling.Weights(samples)
		for i := 0; i < b.N; i++ {
			if _, err := gaussmix.FitEM(xs, nil, 2, 10, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation: MCMC thinning (sample correlation vs cost). ---

func BenchmarkAblationMCMCThin(b *testing.B) {
	sp := benchSpace(b, "uni", 1000, 3, 3)
	cs := benchConstraints(b, sp, 10, 18)
	v := sampling.NewValidator(3, cs)
	prior := gaussmix.DefaultPrior(3, 1, rand.New(rand.NewSource(19)))
	for _, thin := range []int{1, 5, 20} {
		ms := &sampling.MCMC{Prior: prior, V: v, Thin: thin}
		b.Run(name2("thin", thin), func(b *testing.B) {
			rng := rand.New(rand.NewSource(20))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ms.Sample(rng, 200); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Large-catalogue tier: dominance-pruned vs unpruned Top-k-Pkg. ---

// scaleProfile cycles sum/max so positive weights make the utility
// monotone — the regime where the skyline head filter engages. (The Fig6
// profile cycles avg/min in as well, which keeps its random-sign runs
// out of the filter's gate by design.)
func scaleProfile(m int) *feature.Profile {
	cycle := []feature.Agg{feature.AggSum, feature.AggMax}
	aggs := make([]feature.Agg, m)
	for i := range aggs {
		aggs[i] = cycle[i%len(cycle)]
	}
	return feature.SimpleProfile(aggs...)
}

// benchScaleTopK measures Top-k-Pkg at catalogue scale: unpruned vs
// dominance-pruned vs sketch-refine partitioned. The head set and the
// partition are materialized outside the timer, like the index sort: all
// are per-epoch precomputations amortized over every per-sample search
// the epoch serves (and maintained incrementally across delta builds).
//
// heads=false drops the dominance-pruned variant and runs the remaining
// pair with dominance off: the sort-filter skyline build is O(n·|frontier|)
// and the 1M anti-correlated frontier (~42% of items) puts it hours out
// of reach — which is fine, because that frontier shape is exactly where
// dominance pruning is inert (skipped/op = 0 at 100k) and partitioning is
// the lever that still works.
func benchScaleTopK(b *testing.B, n int, kinds []string, heads bool) {
	const m, phi = 5, 5
	for _, kind := range kinds {
		rng := rand.New(rand.NewSource(1))
		items, err := dataset.Generate(kind, n, m, rng)
		if err != nil {
			b.Fatal(err)
		}
		sp, err := feature.NewSpace(items, scaleProfile(m), phi)
		if err != nil {
			b.Fatal(err)
		}
		ix := search.NewIndex(sp)
		if heads {
			ix.Heads()
		}
		ix.EnsurePartition(0)
		w := make([]float64, m)
		wrng := rand.New(rand.NewSource(8))
		for i := range w {
			w[i] = 0.1 + 0.9*wrng.Float64()
		}
		u, err := feature.NewUtility(sp.Profile, w)
		if err != nil {
			b.Fatal(err)
		}
		// unpruned/pruned keep DisablePartition so their numbers stay the
		// baseline series; partitioned is the sketch-refine path over the
		// same pre-materialized clustering.
		variants := []struct {
			name string
			opts search.Options
		}{
			{"unpruned", search.Options{K: 5, DisableDominancePrune: true, DisablePartition: true}},
			{"pruned", search.Options{K: 5, DisablePartition: true}},
			{"partitioned", search.Options{K: 5}},
		}
		if !heads {
			variants = []struct {
				name string
				opts search.Options
			}{
				{"unpruned", search.Options{K: 5, DisableDominancePrune: true, DisablePartition: true}},
				{"partitioned", search.Options{K: 5, DisableDominancePrune: true}},
			}
		}
		for _, tc := range variants {
			b.Run(kind+"/"+tc.name, func(b *testing.B) {
				skipped, sketchSkipped, opened := 0, 0, 0
				for i := 0; i < b.N; i++ {
					res, err := ix.TopK(u, tc.opts)
					if err != nil {
						b.Fatal(err)
					}
					skipped = res.DomPruned
					sketchSkipped = res.SketchSkipped
					opened = res.RefineClustersOpened
				}
				if heads {
					b.ReportMetric(float64(ix.Heads().Len()), "skyline")
				}
				b.ReportMetric(float64(skipped), "skipped/op")
				if sketchSkipped > 0 || opened > 0 {
					b.ReportMetric(float64(sketchSkipped), "sketch_skipped/op")
					b.ReportMetric(float64(opened), "clusters_opened/op")
				}
			})
		}
	}
}

// BenchmarkScaleTopK is the committed 100k-item tier (uni/cor/ant); the
// CI bench smoke runs it. BenchmarkScaleTopK1M is the million-item tier,
// run by `make bench` only; its anti-correlated point skips the skyline
// variant (see benchScaleTopK).
func BenchmarkScaleTopK(b *testing.B) {
	benchScaleTopK(b, 100000, []string{"uni", "cor", "ant"}, true)
}

func BenchmarkScaleTopK1M(b *testing.B) {
	benchScaleTopK(b, 1000000, []string{"uni", "cor"}, true)
	benchScaleTopK(b, 1000000, []string{"ant"}, false)
}

func name2(prefix string, v int) string {
	switch v {
	case 1:
		return prefix + "_1"
	case 5:
		return prefix + "_5"
	default:
		return prefix + "_20"
	}
}

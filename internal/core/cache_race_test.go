package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"toppkg/internal/feature"
	"toppkg/internal/ranking"
	"toppkg/internal/search"
)

// cachedWeights returns the weight vectors of the cache entries a request
// pinned to catalogue epoch catEp could hit right now: keyed under the
// cache's current invalidation epoch and catEp (see ranking.groupResults
// for the key layout: invalidation epoch, catalogue epoch, options key,
// "|", weight bits).
func cachedWeights(c *ranking.Cache, catEp uint64) [][]float64 {
	var prefix [16]byte
	binary.LittleEndian.PutUint64(prefix[:8], c.Epoch())
	binary.LittleEndian.PutUint64(prefix[8:], catEp)
	var ws [][]float64
	c.Range(func(key string, _ search.Result) bool {
		if !strings.HasPrefix(key, string(prefix[:])) {
			return true
		}
		rest := key[16:]
		wkey := rest[strings.Index(rest, "|")+1:]
		w := make([]float64, len(wkey)/8)
		for i := range w {
			w[i] = math.Float64frombits(binary.LittleEndian.Uint64([]byte(wkey[8*i : 8*i+8])))
		}
		ws = append(ws, w)
		return true
	})
	return ws
}

// TestSwapRaceCacheHitsMatchFresh races synchronous epoch swaps against
// engines that Recommend continuously, so Gets and Puts on the shared
// result cache interleave with every swap's invalidation. Auditors take
// cache hits the way a Recommend does — pin the current epoch, as a slate
// does, and look up under that epoch's key — and every hit must be
// bit-identical to a fresh search on the pinned epoch: a Put from a search
// that raced a swap may land, but only under its own epoch's key. Run it
// under -race to exercise the locking too. A run that audits no hit proves
// nothing and fails.
func TestSwapRaceCacheHitsMatchFresh(t *testing.T) {
	cat := liveCatalog(t, -1, 200)
	sh, err := NewLiveShared(liveConfig(), cat)
	if err != nil {
		t.Fatal(err)
	}
	cache := sh.SearchCache()
	// liveConfig's engines search with K=2 per sample (K=2, Sigma=2).
	so := liveConfig().Search
	so.K = 2
	optsKey, ok := so.CacheKey()
	if !ok {
		t.Fatal("search options are not cache-keyable")
	}
	key := func(catEp uint64, w []float64) string {
		var ep [16]byte
		binary.LittleEndian.PutUint64(ep[:8], cache.Epoch())
		binary.LittleEndian.PutUint64(ep[8:], catEp)
		return string(ep[:]) + optsKey + "|" + ranking.WeightKey(w)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			eng, err := sh.NewEngine(seed)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := eng.Recommend(); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	var audited atomic.Int64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ep := cat.Current()
				for _, w := range cachedWeights(cache, ep.ID) {
					got, ok := cache.Get(key(ep.ID, w))
					if !ok {
						continue // invalidated since the scan
					}
					u, err := feature.NewUtility(ep.Space.Profile, w)
					if err != nil {
						t.Error(err)
						return
					}
					fresh, err := ep.Index.TopK(u, so)
					if err != nil {
						t.Error(err)
						return
					}
					if len(got.Packages) != len(fresh.Packages) {
						t.Errorf("epoch %d w=%v: hit has %d packages, fresh search %d",
							ep.ID, w, len(got.Packages), len(fresh.Packages))
						return
					}
					for i := range fresh.Packages {
						g, f := got.Packages[i], fresh.Packages[i]
						if g.Pkg.Signature() != f.Pkg.Signature() || math.Float64bits(g.Utility) != math.Float64bits(f.Utility) {
							t.Errorf("epoch %d w=%v: hit diverges at package %d: cached %s/%v, fresh %s/%v",
								ep.ID, w, i, g.Pkg.Signature(), g.Utility, f.Pkg.Signature(), f.Utility)
							return
						}
					}
					audited.Add(1)
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(91))
	for i := 0; i < 40; i++ {
		time.Sleep(2 * time.Millisecond) // let Recommends and audits interleave between swaps
		ep := cat.Current()
		j := rng.Intn(len(ep.Items()))
		it := ep.Items()[j]
		it.ID = ep.StableID(j)
		it.Values = []float64{rng.Float64(), rng.Float64()}
		if err := cat.Upsert([]feature.Item{it}); err != nil { // synchronous swap + invalidation
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	st := cache.Stats()
	if audited.Load() == 0 {
		t.Fatalf("vacuous run: no cache hit audited; stats %+v", st)
	}
	if st.InvalidationDrops == 0 {
		t.Fatalf("swaps never dropped a cache entry; stats %+v", st)
	}
	t.Logf("%d hits audited; stats %+v", audited.Load(), st)
}

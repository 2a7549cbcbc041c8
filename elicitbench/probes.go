package main

import (
	"fmt"
	"net/http"
	"time"

	"toppkg/internal/core"
	"toppkg/internal/feature"
	"toppkg/internal/search"
)

// overheadProbe measures the HTTP layer on identical cheap requests: after
// one recommend has drawn a session's pool and filled the result cache, it
// sends n repeat recommends of that unchanged session over HTTP from one
// client (the body read but not decoded), interleaved with n calls of
// Manager.Do around Engine.Recommend, all served from the cache. It
// returns the HTTP median minus the direct median in ms: routing, JSON
// encoding and the loopback round trip.
func overheadProbe(st *stack, hb *httpBackend, n int) (float64, error) {
	const id = "overhead-probe"
	if _, err := hb.recommendID(id); err != nil {
		return 0, err
	}
	viaHTTP, direct := make([]float64, 0, n), make([]float64, 0, n)
	since := func(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := hb.call(http.MethodGet, "/sessions/"+id+"/recommend", nil, nil); err != nil {
			return 0, err
		}
		viaHTTP = append(viaHTTP, since(t0))
		t0 = time.Now()
		err := st.mgr.Do(id, func(eng *core.Engine) error {
			_, err := eng.Recommend()
			return err
		})
		if err != nil {
			return 0, err
		}
		direct = append(direct, since(t0))
	}
	return quantile(viaHTTP, 0.5) - quantile(direct, 0.5), nil
}

// searchReplay sums the per-search counters of the replayed vectors.
type searchReplay struct {
	n                                 int
	topk                              []float64 // ms per search
	accessed, created, truncated      float64
	monotone, pruned, skipped, opened float64
	utilities                         []*feature.Utility
}

// replaySearches runs each vector through Index.TopK with the workload's
// search options on the current epoch, outside every other span.
func replaySearches(ix *search.Index, vectors [][]float64, tr *tracer, req *int64) (*searchReplay, error) {
	prof := ix.Space().Profile
	opts := searchOptions()
	opts.K = slateK
	out := &searchReplay{}
	for _, w := range vectors {
		u, err := feature.NewUtility(prof, w)
		if err != nil {
			return nil, err
		}
		*req++
		s := tr.begin("search.topk", 0, *req)
		t0 := time.Now()
		res, err := ix.TopK(u, opts)
		dt := time.Since(t0)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("search replay: %w", err)
		}
		out.n++
		out.topk = append(out.topk, float64(dt.Nanoseconds())/1e6)
		out.accessed += float64(res.Accessed)
		out.created += float64(res.Created)
		if res.Truncated {
			out.truncated++
		}
		if u.SetMonotone(prof) {
			out.monotone++
		}
		out.pruned += float64(res.DomPruned)
		out.skipped += float64(res.SketchSkipped)
		out.opened += float64(res.RefineClustersOpened)
		out.utilities = append(out.utilities, u)
	}
	return out, nil
}

// probeSink keeps the probed kernels' results alive.
var probeSink float64

// featureProbe times the scoring kernels the search hot path runs, over
// the epoch's space and the replayed utilities: State.GrowFrom,
// ScoreAfterBatch over a batch of 16 states, and PadUpperTau. It returns
// ns per call of each.
func featureProbe(sp *feature.Space, utils []*feature.Utility) (grow, batch, pad float64) {
	const (
		maxUtils = 16
		nIDs     = 64
		nStates  = 16
		reps     = 100
	)
	if len(utils) > maxUtils {
		utils = utils[:maxUtils]
	}
	if len(utils) == 0 || sp.N() == 0 {
		return 0, 0, 0
	}
	ids := make([]int32, nIDs)
	for i := range ids {
		ids[i] = int32(i * sp.N() / nIDs)
	}
	prof := sp.Profile
	colMin := make([]float64, prof.FeatureCount())
	colMax := make([]float64, prof.FeatureCount())
	for f := range colMin {
		colMin[f], colMax[f], _ = sp.ColStats(f, ids)
	}
	var tGrow, tBatch, tPad time.Duration
	var nGrow, nBatch, nPad int
	out := make([]float64, nStates)
	for _, u := range utils {
		pl := feature.NewScorePlan(sp, u)
		var lists []int
		var taus []float64
		for d, w := range u.W {
			if w == 0 {
				continue
			}
			lists = append(lists, d)
			f := prof.Entry(d).Feature
			if w > 0 {
				taus = append(taus, colMax[f])
			} else {
				taus = append(taus, colMin[f])
			}
		}
		padPlan := feature.NewPadPlan(sp, u, nil, lists)
		empty := feature.NewState(sp)
		states := make([]*feature.State, nStates)
		for i := range states {
			states[i] = feature.NewState(sp)
			states[i].GrowFrom(empty, pl, ids[i])
		}
		st := feature.NewState(sp)

		t0 := time.Now()
		for r := 0; r < reps; r++ {
			for _, id := range ids {
				st.GrowFrom(empty, pl, id)
			}
		}
		tGrow += time.Since(t0)
		nGrow += reps * nIDs

		t0 = time.Now()
		for r := 0; r < reps; r++ {
			for _, id := range ids {
				feature.ScoreAfterBatch(pl, id, states, out)
			}
		}
		tBatch += time.Since(t0)
		nBatch += reps * nIDs
		probeSink += out[0]

		t0 = time.Now()
		for r := 0; r < reps; r++ {
			for _, s := range states {
				probeSink += s.PadUpperTau(padPlan, taus, phi)
			}
		}
		tPad += time.Since(t0)
		nPad += reps * nStates
	}
	ns := func(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }
	return ns(tGrow, nGrow), ns(tBatch, nBatch), ns(tPad, nPad)
}

package main

import (
	"fmt"
	"os"
	"time"
)

// runTraced is the per-layer run: after set-up and warm-up it runs a short
// open loop over HTTP (generator lag), then replays the stream through the
// layers' public functions twice — spans off, then spans on — then the
// searched vectors through Index.TopK, then half the write probe through
// Catalog.Upsert / Delete, and finally probes the HTTP overhead and the
// scoring kernels.
// overheadCalls is how many cheap recommends overheadProbe sends each way.
const overheadCalls = 200

func runTraced(cfg runConfig) (*result, error) {
	cfg.setupReps = 1
	e, err := setup(cfg)
	if err != nil {
		return nil, err
	}
	defer e.close()
	epoch0 := e.st.cat.Stats().Epoch
	e.warmUp()

	var open recorder
	lag := openLoop(e.tr, e.hb, cfg.frac(0.2), &open)

	tr := &tracer{t0: time.Now()}
	db := &directBackend{st: e.st, tr: tr}
	var plain, traced, probe recorder
	plainOps, plainTook := directLoop(e.tr, db, cfg.frac(0.35), &plain, 400)

	// Counters are read around the traced phase only.
	tr.on = true
	db.totals, db.builds, db.vectors = engineTotals{}, nil, nil
	mgr0, cache0, cat0 := e.st.mgr.Stats(), e.st.mgr.SearchCacheStats(), e.st.cat.Stats()
	mut0 := e.tr.mutations
	swap0 := e.st.swaps.count()
	tracedOps, tracedTook := directLoop(e.tr, db, cfg.frac(0.35), &traced, 500)
	mgr1 := e.st.mgr.Stats()
	replay, err := replaySearches(e.st.cat.Current().Index, db.vectors, tr, &db.req)
	if err != nil {
		return nil, err
	}
	probeWrites := e.writeProbe(db, cfg.writeProbe/2, &probe)
	cache1, cat1 := e.st.mgr.SearchCacheStats(), e.st.cat.Stats()
	swaps := float64(cat1.Epoch - cat0.Epoch)
	reconciles := []float64{}
	for _, r := range e.st.swaps.since(swap0) {
		reconciles = append(reconciles, float64(r.reconcileNS)/1e6)
	}
	tr.on = false

	for _, r := range []*recorder{&open, &plain, &traced, &probe} {
		e.all.merge(r)
	}
	correct := e.all.malformed == 0
	if err := e.checkSchedule(epoch0, probeWrites); err != nil {
		fmt.Fprintln(os.Stderr, "elicitbench: write schedule:", err)
		correct = false
	}

	overhead, err := overheadProbe(e.st, e.hb, overheadCalls)
	if err != nil {
		return nil, fmt.Errorf("overhead probe: %w", err)
	}
	grow, batch, pad := featureProbe(e.st.cat.Current().Space, replay.utilities)

	// Spans of recommends: the session.do parents of ranking.recommend.
	var doRec, acquire, draws, ranks, learns []float64
	var covered, total float64
	isRec := map[int]bool{}
	for _, s := range tr.spans {
		if s.Name == "ranking.recommend" {
			isRec[s.Parent] = true
		}
	}
	for i, s := range tr.spans {
		switch s.Name {
		case "session.do":
			if isRec[i+1] {
				doRec = append(doRec, s.ms())
				total += s.ms()
			}
		case "session.acquire":
			acquire = append(acquire, s.ms())
			if isRec[s.Parent] {
				covered += s.ms()
			}
		case "sampling.draw":
			if s.Note == "drew" {
				draws = append(draws, s.ms())
			}
			covered += s.ms()
		case "ranking.recommend":
			ranks = append(ranks, s.ms())
			covered += s.ms()
		case "maintain.learn":
			learns = append(learns, s.ms())
		}
	}
	t := db.totals
	kops := float64(t.ops) / 1000
	drawn := float64(t.draws*sampleCount + t.replaced)
	vals := map[string]float64{
		"server.overhead_ms":               overhead,
		"session.do_mean_ms":               mean(doRec),
		"session.acquire_p95_ms":           quantile(acquire, 0.95),
		"session.restore_share":            ratio(float64(mgr1.Restored-mgr0.Restored), float64(mgr1.Hits+mgr1.Misses-mgr0.Hits-mgr0.Misses)),
		"session.evict_sync_share":         ratio(float64(mgr1.EvictSyncFallbacks-mgr0.EvictSyncFallbacks), float64(mgr1.Evicted-mgr0.Evicted)),
		"sampling.draw_ms":                 quantile(draws, 0.5),
		"sampling.attempts_per_sample":     ratio(float64(t.attempts), drawn),
		"sampling.fallbacks_per_kop":       ratio(float64(t.fallbacks), kops),
		"maintain.learn_p50_ms":            quantile(learns, 0.5),
		"maintain.learn_p95_ms":            quantile(learns, 0.95),
		"maintain.replaced_per_learn":      ratio(float64(t.replaced), float64(t.learns)),
		"maintain.work_per_learn":          ratio(float64(t.work), float64(t.learns)),
		"prefgraph.cycles_per_kop":         ratio(float64(t.cycles), kops),
		"ranking.recommend_mean_ms":        mean(ranks),
		"ranking.recommend_p95_ms":         quantile(ranks, 0.95),
		"ranking.dedup_ratio":              ratio(float64(t.rankSamples-t.rankDistinct), float64(t.rankSamples)),
		"ranking.searches_per_recommend":   ratio(float64(t.rankSearches), float64(t.recommends)),
		"ranking.cache_hit_rate":           ratio(float64(t.rankHits), float64(t.rankDistinct)),
		"ranking.reconcile_ms":             quantile(reconciles, 0.5),
		"ranking.retained_per_swap":        ratio(float64(cache1.Retained-cache0.Retained), swaps),
		"ranking.reconcile_drops_per_swap": ratio(float64(cache1.ReconcileDrops-cache0.ReconcileDrops), swaps),
		"ranking.revived_per_swap":         ratio(float64(cache1.Revived-cache0.Revived), swaps),
		"search.topk_p50_ms":               quantile(replay.topk, 0.5),
		"search.topk_p95_ms":               quantile(replay.topk, 0.95),
		"search.accessed_per_search":       ratio(replay.accessed, float64(replay.n)),
		"search.created_per_search":        ratio(replay.created, float64(replay.n)),
		"search.truncated_share":           ratio(replay.truncated, float64(replay.n)),
		"search.monotone_share":            ratio(replay.monotone, float64(replay.n)),
		"skyline.pruned_per_search":        ratio(replay.pruned, float64(replay.n)),
		"partition.skipped_per_search":     ratio(replay.skipped, float64(replay.n)),
		"partition.opened_per_search":      ratio(replay.opened, float64(replay.n)),
		"feature.grow_ns":                  grow,
		"feature.score_batch_ns":           batch,
		"feature.pad_upper_ns":             pad,
		"catalog.build_ms":                 quantile(db.builds, 0.5),
		"catalog.delta_share":              ratio(float64(cat1.DeltaBuilds-cat0.DeltaBuilds), float64(cat1.Rebuilds-cat0.Rebuilds)),
		"catalog.head_recomputes_per_swap": ratio(float64(cat1.SkylineRecomputes-cat0.SkylineRecomputes), swaps),
		"catalog.reclusters_per_swap":      ratio(float64(cat1.PartitionReclusters-cat0.PartitionReclusters), swaps),
		"catalog.swaps_per_kop":            ratio(swaps, float64(e.tr.mutations-mut0)/1000),
		"bench.gen_lag_p95_ms":             quantile(lag, 0.95),
		"bench.open_recommend_mean_ms":     mean(open.lat[opRecommend]),
		"bench.trace_overhead":             ratio(tracedTook.Seconds()/float64(tracedOps), plainTook.Seconds()/float64(plainOps)),
		"bench.recommend_span_coverage":    ratio(covered, total),
	}
	fmt.Fprintf(os.Stderr, "%s seed %d traced: %d direct ops (%d recommends, %d draws, %d learns), %d swaps, %d searches replayed\n",
		cfg.wl.name, cfg.seed, t.ops, t.recommends, t.draws, t.learns, int(swaps), replay.n)
	for _, msg := range e.all.errs {
		fmt.Fprintln(os.Stderr, "  failure:", msg)
	}
	if cfg.traceFile != "" {
		if err := tr.write(cfg.traceFile, cfg.stamp); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return finish(correct, &e.all, perLayer, vals)
}

// Command elicitbench is the repository benchmark: it stands the serving
// stack up in-process (catalogue, live shared core, session manager over a
// memory store, HTTP server on loopback) and drives it with generated
// hidden-user elicitation traffic — zipfian sessions running episodes of
// recommend / click / feedback, answered by a hidden weight vector per
// session — on one of two workloads.
//
//	bash elicitbench/run.sh --workload elicit-mono-100k --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics: set-up time, heap,
// closed-loop latencies and throughput, write latency, success rate and
// elicitation quality. With --trace 1 it reports the per-layer
// metrics, from a run that replays the stream through the layers' public
// functions with spans on (written to .bench_build/traces). The last line
// of standard output is the result as one JSON object; the line before it
// is the host stamp. LAYERS.md says which end-to-end metric each
// per-layer metric should move, and on which workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run. The session latencies are
// those of the closed loop, each request timed from send to answer.
// Recommends are cache hits of ~0.5 ms or re-searches of ~0.1–0.8 s, and
// probe writes either keep the skyline heads (~40 ms) or recompute them
// (~90 ms, about one swap in eight): a median of either times one kind
// alone, and a p90 of writes sits on the edge between the two, so both
// report their mean.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"throughput_ops_s", "1/s"},
	{"recommend_mean_ms", "ms"},
	{"recommend_p95_ms", "ms"},
	{"learn_p50_ms", "ms"},
	{"learn_p90_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_mean_ms", "ms"},
	{"success_rate", "ratio"},
	{"quality_rounds", "rounds"},
}

// perLayer are the metrics of a traced run.
var perLayer = []metricDef{
	{"server.overhead_ms", "ms"},
	{"session.do_mean_ms", "ms"},
	{"session.acquire_p95_ms", "ms"},
	{"session.restore_share", "ratio"},
	{"session.evict_sync_share", "ratio"},
	{"sampling.draw_ms", "ms"},
	{"sampling.attempts_per_sample", "count"},
	{"sampling.fallbacks_per_kop", "1/kop"},
	{"maintain.learn_p50_ms", "ms"},
	{"maintain.learn_p95_ms", "ms"},
	{"maintain.replaced_per_learn", "count"},
	{"maintain.work_per_learn", "count"},
	{"prefgraph.cycles_per_kop", "1/kop"},
	{"ranking.recommend_mean_ms", "ms"},
	{"ranking.recommend_p95_ms", "ms"},
	{"ranking.dedup_ratio", "ratio"},
	{"ranking.searches_per_recommend", "count"},
	{"ranking.cache_hit_rate", "ratio"},
	{"ranking.reconcile_ms", "ms"},
	{"ranking.retained_per_swap", "count"},
	{"ranking.reconcile_drops_per_swap", "count"},
	{"ranking.revived_per_swap", "count"},
	{"search.topk_p50_ms", "ms"},
	{"search.topk_p95_ms", "ms"},
	{"search.accessed_per_search", "count"},
	{"search.created_per_search", "count"},
	{"search.truncated_share", "ratio"},
	{"search.monotone_share", "ratio"},
	{"skyline.pruned_per_search", "count"},
	{"partition.skipped_per_search", "count"},
	{"partition.opened_per_search", "count"},
	{"feature.grow_ns", "ns"},
	{"feature.score_batch_ns", "ns"},
	{"feature.pad_upper_ns", "ns"},
	{"catalog.build_ms", "ms"},
	{"catalog.delta_share", "ratio"},
	{"catalog.head_recomputes_per_swap", "count"},
	{"catalog.reclusters_per_swap", "count"},
	{"catalog.swaps_per_kop", "1/kop"},
	{"bench.gen_lag_p95_ms", "ms"},
	{"bench.open_recommend_mean_ms", "ms"},
	{"bench.trace_overhead", "ratio"},
	{"bench.recommend_span_coverage", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output record.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: elicit-mixed-2k or elicit-mono-100k")
		seed    = flag.Int64("seed", 1, "traffic seed")
		seconds = flag.Float64("seconds", 20, "measured seconds of traffic")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	)
	flag.Parse()
	wl, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "elicitbench:", err)
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "elicitbench:", err)
		os.Exit(1)
	}
	cfg := runConfig{
		wl:         wl,
		seed:       *seed,
		seconds:    *seconds,
		trace:      *trace == 1,
		population: population,
		setupReps:  3,
		quality:    qualityUsers,
		writeProbe: 100,
		traceFile:  filepath.Join(root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", wl.name, *seed)),
		stamp:      stamp(wl.name, *seed, root),
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "elicitbench:", err)
		os.Exit(1)
	}
	host, _ := json.Marshal(map[string]any{"host": cfg.stamp})
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "elicitbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(host))
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// runConfig sizes one run; tests shrink it.
type runConfig struct {
	wl         workload
	seed       int64
	seconds    float64
	trace      bool
	population int
	setupReps  int
	quality    int
	writeProbe int    // writes timed one by one after the traffic
	traceFile  string // "" keeps the spans in memory only
	stamp      hostStamp
}

func (c runConfig) frac(f float64) time.Duration {
	return time.Duration(f * c.seconds * float64(time.Second))
}

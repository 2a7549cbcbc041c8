package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"testing"

	"toppkg/internal/feature"
)

// tiny shrinks a workload so a run takes seconds: the mono catalogues stay
// above search.PartitionMinItems so the partition still engages.
func tiny(t *testing.T, name string, seed int64, trace bool) runConfig {
	t.Helper()
	wl, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	if wl.items > 5000 {
		wl.items = 5000
	} else {
		wl.items = 300
	}
	return runConfig{wl: wl, seed: seed, seconds: 2, trace: trace, population: 2000,
		setupReps: 1, quality: 2, writeProbe: 4}
}

func TestWorkloadsTiny(t *testing.T) {
	for _, wl := range workloads {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", wl.name, seed), func(t *testing.T) {
				res, err := run(tiny(t, wl.name, seed, false))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(endToEnd) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(endToEnd))
				}
				// A tiny closed loop under the race detector may finish
				// only its sessions' first recommends; these metrics
				// always have samples.
				for _, name := range []string{"setup_s", "heap_mb", "throughput_ops_s", "recommend_mean_ms",
					"write_p50_ms", "write_mean_ms", "success_rate", "quality_rounds"} {
					if v := res.Metrics[name].Value; v <= 0 {
						t.Errorf("%s = %v, want > 0", name, v)
					}
				}
			})
		}
	}
}

func TestTracedTiny(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			cfg := tiny(t, wl.name, 1, true)
			cfg.seconds = 5 // enough feedback rounds that warm pools dominate the replayed vectors
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Fatalf("%d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			m := func(name string) float64 { return res.Metrics[name].Value }
			if c := m("bench.recommend_span_coverage"); c < 0.95 || c > 1 {
				t.Errorf("recommend child spans cover %.3f of the traced time", c)
			}
			mono, opened := m("search.monotone_share"), m("partition.opened_per_search")
			if slices.Contains(wl.aggs, feature.AggAvg) {
				if mono != 0 || opened != 0 {
					t.Errorf("mixed profile: monotone share %v, clusters opened %v; want 0 and 0", mono, opened)
				}
			} else if mono < 0.8 || opened <= 0 {
				// Full-size runs read >= 0.9 (LAYERS.md); a tiny run's pools
				// are mostly fresh prior draws, a little less monotone.
				t.Errorf("monotone profile: monotone share %v, clusters opened %v; want >= 0.8 and > 0", mono, opened)
			}
		})
	}
}

// TestQualityRepeats checks that the quality pass is a pure function of
// the code: two passes give bit-identical slate signatures.
func TestQualityRepeats(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			cfg := tiny(t, wl.name, 1, false)
			items := cfg.wl.dataset()
			r1, h1, err := qualityPass(cfg.wl, items, 2)
			if err != nil {
				t.Fatal(err)
			}
			r2, h2, err := qualityPass(cfg.wl, items, 2)
			if err != nil {
				t.Fatal(err)
			}
			if h1 != h2 || r1 != r2 {
				t.Fatalf("quality passes differ: rounds %v vs %v, hash %x vs %x", r1, r2, h1, h2)
			}
		})
	}
}

// trafficHash digests the inputs a seed generates: the sessions drawn by
// the first generator stream, their hidden weights and first decisions,
// and the first writes.
func trafficHash(wl workload, seed int64) uint64 {
	tr := newTraffic(wl, seed, 2000, nil)
	z := tr.zipf(1)
	h := fnv.New64a()
	for i := 0; i < 200; i++ {
		u := tr.user(int(z.Uint64()))
		fmt.Fprintf(h, "%s %v %d;", u.id, u.w, u.rng.intn(1000))
	}
	for j := int64(0); j < 8; j++ {
		fmt.Fprintf(h, "%v;", tr.mutation(j))
	}
	return h.Sum64()
}

func TestSeedChangesTraffic(t *testing.T) {
	for _, wl := range workloads {
		if trafficHash(wl, 1) != trafficHash(wl, 1) {
			t.Errorf("%s: one seed generated two streams", wl.name)
		}
		if trafficHash(wl, 1) == trafficHash(wl, 2) {
			t.Errorf("%s: seeds 1 and 2 generated the same stream", wl.name)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics this
// program reports and the workloads it knows.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) < 2 {
		t.Fatalf("%d workloads in BENCHMARK.json, want at least 2", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: %s (%s) in BENCHMARK.json, %s (%s) here", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

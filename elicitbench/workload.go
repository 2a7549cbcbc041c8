package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/search"
)

// Settings shared by every workload: the serve defaults plus the search
// caps cmd/loadgen runs with.
const (
	phi          = 3    // maximum package size
	slateK       = 5    // recommended packages per slate
	sampleCount  = 100  // weight-vector samples per engine
	maxQueue     = 128  // search beam (Q+ cap)
	maxAccessed  = 500  // search depth budget
	capacity     = 1024 // resident sessions before LRU eviction
	population   = 100000
	zipfS        = 1.07
	episodeMin   = 8
	episodeMax   = 20
	mixRecommend = 6
	mixClick     = 3
	mixFeedback  = 1
	writeBatch   = 8 // stable IDs repriced per catalogue write
	dataSeed     = 1 // the catalogue is fixed per workload; --seed drives traffic
	clients      = 2 // connections, = nproc on the reference host
)

// workload is one traffic mix over one catalogue.
type workload struct {
	name  string
	items int
	aggs  []feature.Agg
	// priorMean and priorStd place the engine's Gaussian weight prior.
	priorMean, priorStd float64
	// hiddenLo: hidden user weights are uniform in (hiddenLo, 1].
	hiddenLo float64
}

var workloads = []workload{
	{
		name:      "elicit-mixed-2k",
		items:     2000,
		aggs:      []feature.Agg{feature.AggSum, feature.AggAvg, feature.AggMax, feature.AggMin, feature.AggSum},
		priorMean: 0, priorStd: 0.5,
		hiddenLo: -1,
	},
	{
		name:      "elicit-mono-100k",
		items:     100000,
		aggs:      []feature.Agg{feature.AggSum, feature.AggMax, feature.AggSum, feature.AggMax, feature.AggSum},
		priorMean: 0.5, priorStd: 0.2,
		hiddenLo: 0,
	},
}

// The open loop. openRate is its arrival rate in ops per second, an eighth
// to a sixth of the closed-loop throughput on a 2-CPU host (LAYERS.md says
// why not more). thinkTime is how long a simulated user takes between
// seeing one answer and sending the next operation. By Little's law the
// two fix how many sessions the open loop keeps mid-episode: openRate ×
// (thinkTime + mean response time), where the mean response of ~0.05 s is
// small beside thinkTime. LAYERS.md records how little the end-to-end
// metrics move with thinkTime.
const (
	openRate  = 4.5
	thinkTime = 2 * time.Second
)

var activeUsers = int(math.Ceil(openRate * thinkTime.Seconds()))

func findWorkload(name string) (workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// searchOptions are the per-search options the engines run with (K is set
// per call by the ranking layer; the reference search uses slateK).
func searchOptions() search.Options {
	return search.Options{MaxQueue: maxQueue, MaxAccessed: maxAccessed}
}

// dataset builds the workload's fixed catalogue: UNI items, seeded by
// dataSeed so every run of a workload serves the same items.
func (wl workload) dataset() []feature.Item {
	return dataset.UNI(wl.items, len(wl.aggs), rand.New(rand.NewSource(dataSeed)))
}

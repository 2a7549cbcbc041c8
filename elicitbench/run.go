package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"toppkg/internal/feature"
)

// env is one run's stack and traffic after set-up.
type env struct {
	cfg    runConfig
	items  []feature.Item
	st     *stack
	hb     *httpBackend
	tr     *traffic
	setups []float64 // seconds per set-up
	all    recorder  // counts over every phase
}

// setup builds the stack cfg.setupReps times, each time timing catalogue
// build to first served recommend, and keeps the last one. Dataset
// generation is not timed.
func setup(cfg runConfig) (*env, error) {
	e := &env{cfg: cfg, items: cfg.wl.dataset()}
	for i := 0; i < cfg.setupReps; i++ {
		if e.st != nil {
			e.hb.close()
			e.st.close()
			e.st = nil
		}
		runtime.GC() // the previous stack's garbage is not this set-up's work
		t0 := time.Now()
		st, err := buildStack(cfg.wl, e.items)
		if err != nil {
			return nil, err
		}
		e.st, e.hb = st, newHTTPBackend(st)
		if _, err := e.hb.recommendID("setup-probe"); err != nil {
			e.close()
			return nil, fmt.Errorf("first recommend: %w", err)
		}
		e.setups = append(e.setups, time.Since(t0).Seconds())
	}
	e.tr = newTraffic(cfg.wl, cfg.seed, cfg.population, func() *feature.Space { return e.st.cat.Current().Space })
	return e, nil
}

func (e *env) close() {
	if e.st != nil {
		e.hb.close()
		e.st.close()
	}
}

// warmUp runs the open loop untimed so its active sessions are mid-episode
// and the result cache and lazy per-epoch structures settle; it returns
// once every warm-up op has completed.
func (e *env) warmUp() {
	var rec recorder
	openLoop(e.tr, e.hb, e.cfg.frac(warmShare), &rec)
	e.all.merge(&rec)
}

// checkSchedule verifies the write schedule: exactly the probe's writes
// ran, and every completed mutation request became exactly one epoch swap
// since epoch0 (the session traffic makes none).
func (e *env) checkSchedule(epoch0 uint64, probeWrites int64) error {
	if e.tr.writes != probeWrites {
		return fmt.Errorf("%d writes ran, %d scheduled", e.tr.writes, probeWrites)
	}
	if swaps := int64(e.st.cat.Stats().Epoch - epoch0); swaps != e.tr.mutations {
		return fmt.Errorf("%d epoch swaps for %d mutation requests", swaps, e.tr.mutations)
	}
	return nil
}

func run(cfg runConfig) (*result, error) {
	if cfg.trace {
		return runTraced(cfg)
	}
	return runEndToEnd(cfg)
}

// Shares of --seconds in the untraced run: the open-loop warm-up and the
// timed closed loop.
const (
	warmShare   = 0.06
	closedShare = 0.94
)

// runEndToEnd is the untraced run: set-up, the open-loop warm-up, the
// write probe, the timed closed loop with 2 clients (latencies and
// throughput), then the quality pass. The warm-up is a fixed number of
// arrivals and the probe runs right after it, so the heap and the result
// cache the probe's writes reconcile are the same in every run; the
// closed loop's work depends on the host's speed. LAYERS.md says why the
// latencies come from the closed loop and not from an open loop.
func runEndToEnd(cfg runConfig) (*result, error) {
	e, err := setup(cfg)
	if err != nil {
		return nil, err
	}
	defer e.close()
	epoch0 := e.st.cat.Stats().Epoch
	e.warmUp()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	var closed, probe recorder
	probeWrites := e.writeProbe(e.hb, cfg.writeProbe, &probe)
	ops, took := closedLoop(e.tr, e.hb, cfg.frac(closedShare), &closed, 300)
	writes := probe.lat[opWrite]
	for _, r := range []*recorder{&closed, &probe} {
		e.all.merge(r)
	}
	correct := e.all.malformed == 0
	if err := e.checkSchedule(epoch0, probeWrites); err != nil {
		fmt.Fprintln(os.Stderr, "elicitbench: write schedule:", err)
		correct = false
	}
	e.close()
	e.st = nil

	rounds, _, err := qualityPass(cfg.wl, e.items, cfg.quality)
	if err != nil {
		return nil, err
	}
	okOps := 0.0
	for k := opKind(0); k < opWrite; k++ {
		okOps += float64(len(closed.lat[k]))
	}
	recs, learn := closed.lat[opRecommend], closed.learn()
	vals := map[string]float64{
		"setup_s":           quantile(e.setups, 0.5),
		"heap_mb":           float64(ms.HeapInuse) / (1 << 20),
		"throughput_ops_s":  okOps / took.Seconds(),
		"recommend_mean_ms": mean(recs),
		"recommend_p95_ms":  quantile(recs, 0.95),
		"learn_p50_ms":      quantile(learn, 0.5),
		"learn_p90_ms":      quantile(learn, 0.90),
		"write_p50_ms":      quantile(writes, 0.5),
		"write_mean_ms":     mean(writes),
		"success_rate":      1 - ratio(float64(e.all.failed), float64(e.all.attempted)),
		"quality_rounds":    rounds,
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d closed-loop ops (%d recommends, %d learns); %d probe write requests; set-ups %v s\n",
		cfg.wl.name, cfg.seed, ops, len(recs), len(learn), len(writes), e.setups)
	for _, l := range []struct {
		name string
		xs   []float64
	}{{"recommend", recs}, {"learn", learn}, {"write", writes}} {
		fmt.Fprintf(os.Stderr, "  %-16s n=%-4d mean=%.4g", l.name, len(l.xs), mean(l.xs))
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.8, 0.9, 0.95, 0.99} {
			fmt.Fprintf(os.Stderr, " p%g=%.4g", q*100, quantile(l.xs, q))
		}
		fmt.Fprintln(os.Stderr)
	}
	for _, msg := range e.all.errs {
		fmt.Fprintln(os.Stderr, "  failure:", msg)
	}
	return finish(correct, &e.all, endToEnd, vals)
}

// writeProbe runs n scheduled writes one after another while no session
// traffic runs, each mutation request timed from send until visible, and
// returns n.
func (e *env) writeProbe(b backend, n int, rec *recorder) int64 {
	for i := 0; i < n; i++ {
		e.tr.doWrite(b, rec)
	}
	return int64(n)
}

// finish assembles the result record; any metric that is not a finite
// number makes the run incorrect.
func finish(correct bool, all *recorder, defs []metricDef, vals map[string]float64) (*result, error) {
	res := &result{Correct: correct, Attempted: all.attempted, Failed: all.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "elicitbench: metric %s is %v\n", d.name, v)
			v, res.Correct = 0, false
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	return res, nil
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"toppkg/internal/core"
	"toppkg/internal/pkgspace"
)

// span is one timed call into a layer. Spans of one operation share Req;
// Parent is the index+1 of the enclosing span (0 for a root).
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Note   string `json:"note,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory for the single-goroutine direct replay.
// When off, begin and end do nothing.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int, req int64) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if id > 0 {
		t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
	}
}

func (t *tracer) note(id int, note string) {
	if id > 0 {
		t.spans[id-1].Note = note
	}
}

// write dumps the spans as JSON to path.
func (t *tracer) write(path string, stamp hostStamp) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"host": stamp, "spans": t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// engineTotals accumulates engine counter deltas over direct operations.
type engineTotals struct {
	recommends, learns, draws, ops int64
	attempts, replaced, work       int64
	fallbacks, cycles              int64
	rankSamples, rankDistinct      int64
	rankHits, rankSearches         int64
}

func (e *engineTotals) add(d core.Stats) {
	e.attempts += int64(d.SampleAttempts)
	e.replaced += int64(d.SamplesReplaced)
	e.work += int64(d.MaintenanceWork)
	e.fallbacks += int64(d.InitialSampleFallbacks + d.ReplacementFailures)
	e.cycles += int64(d.CyclesSkipped)
	e.rankSamples += int64(d.RankSamples)
	e.rankDistinct += int64(d.RankDistinct)
	e.rankHits += int64(d.RankCacheHits)
	e.rankSearches += int64(d.RankSearches)
}

func statsDelta(a, b core.Stats) core.Stats {
	return core.Stats{
		SampleAttempts:         a.SampleAttempts - b.SampleAttempts,
		SamplesReplaced:        a.SamplesReplaced - b.SamplesReplaced,
		MaintenanceWork:        a.MaintenanceWork - b.MaintenanceWork,
		InitialSampleFallbacks: a.InitialSampleFallbacks - b.InitialSampleFallbacks,
		ReplacementFailures:    a.ReplacementFailures - b.ReplacementFailures,
		CyclesSkipped:          a.CyclesSkipped - b.CyclesSkipped,
		RankSamples:            a.RankSamples - b.RankSamples,
		RankDistinct:           a.RankDistinct - b.RankDistinct,
		RankCacheHits:          a.RankCacheHits - b.RankCacheHits,
		RankSearches:           a.RankSearches - b.RankSearches,
	}
}

// maxReplay bounds the searched vectors kept for the search replay.
const maxReplay = 160

// directBackend replays the operation stream through the layers' public
// functions on one goroutine: Manager.Do around Engine.Samples,
// Recommend, Click and Feedback, and Catalog.Upsert / Delete for writes.
type directBackend struct {
	st     *stack
	tr     *tracer
	req    int64
	totals engineTotals
	// vectors is a fixed sample of the searched weight vectors: the first
	// eight samples of every recommend, up to maxReplay.
	vectors [][]float64
	// builds holds catalog.build_ms per swap: Upsert/Delete call to the
	// first subscriber.
	builds []float64
}

// engineCall runs fn under Manager.Do with the session.do / acquire spans,
// folds the engine counter delta into the totals and returns it.
func (b *directBackend) engineCall(u *user, fn func(eng *core.Engine, do int) error) (core.Stats, error) {
	var d core.Stats
	b.req++
	do := b.tr.begin("session.do", 0, b.req)
	acq := b.tr.begin("session.acquire", do, b.req)
	err := b.st.mgr.Do(u.id, func(eng *core.Engine) error {
		b.tr.end(acq)
		if !u.lastOK {
			u.last, u.lastOK = eng.Stats(), true
		}
		ferr := fn(eng, do)
		now := eng.Stats()
		d = statsDelta(now, u.last)
		if d.SampleAttempts < 0 || d.RankSamples < 0 {
			d = now // the session was recreated since its last call
		}
		b.totals.add(d)
		u.last = now
		return ferr
	})
	b.tr.end(do)
	b.totals.ops++
	return d, err
}

func (b *directBackend) recommend(u *user) (*slate, error) {
	var out *slate
	draw := 0
	d, err := b.engineCall(u, func(eng *core.Engine, do int) error {
		draw = b.tr.begin("sampling.draw", do, b.req)
		samples, err := eng.Samples()
		b.tr.end(draw)
		if err != nil {
			return err
		}
		rank := b.tr.begin("ranking.recommend", do, b.req)
		sl, err := eng.Recommend()
		b.tr.end(rank)
		if err != nil {
			return err
		}
		b.totals.recommends++
		for i := 0; i < 8 && i < len(samples) && len(b.vectors) < maxReplay; i++ {
			b.vectors = append(b.vectors, append([]float64(nil), samples[i].W...))
		}
		out = &slate{}
		for _, r := range sl.Recommended {
			out.rec = append(out.rec, canonical(r.Pkg.IDs))
			out.scores = append(out.scores, r.Score)
		}
		for _, p := range sl.Random {
			out.random = append(out.random, canonical(p.IDs))
		}
		return checkSlate(out, sl.Space.N())
	})
	if d.SampleAttempts > 0 { // Samples drew the pool: only it samples in a recommend
		b.totals.draws++
		b.tr.note(draw, "drew")
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

func packages(ids [][]int) []pkgspace.Package {
	out := make([]pkgspace.Package, len(ids))
	for i, p := range ids {
		out[i] = pkgspace.New(p...)
	}
	return out
}

func (b *directBackend) click(u *user, chosen []int, shown [][]int) error {
	_, err := b.engineCall(u, func(eng *core.Engine, do int) error {
		b.totals.learns++
		learn := b.tr.begin("maintain.learn", do, b.req)
		defer b.tr.end(learn)
		return eng.Click(pkgspace.New(chosen...), packages(shown))
	})
	return err
}

func (b *directBackend) feedback(u *user, winner, loser []int) error {
	_, err := b.engineCall(u, func(eng *core.Engine, do int) error {
		b.totals.learns++
		learn := b.tr.begin("maintain.learn", do, b.req)
		defer b.tr.end(learn)
		return eng.Feedback(pkgspace.New(winner...), pkgspace.New(loser...))
	})
	return err
}

func (b *directBackend) endSession(u *user) error {
	b.req++
	s := b.tr.begin("session.delete", 0, b.req)
	defer b.tr.end(s)
	b.totals.ops++
	return b.st.mgr.Delete(u.id)
}

// mutate applies one catalogue mutation and waits until its swap went
// through both subscribers, recording the time to the first; it returns
// the time until the swap was visible.
func (b *directBackend) mutate(name string, apply func() error) (time.Duration, error) {
	b.req++
	s := b.tr.begin(name, 0, b.req)
	defer b.tr.end(s)
	n := b.st.swaps.count()
	t0 := time.Now()
	if err := apply(); err != nil {
		return 0, err
	}
	if err := b.st.swaps.waitCount(n+1, 30*time.Second); err != nil {
		return 0, err
	}
	recs := b.st.swaps.since(n)
	b.builds = append(b.builds, float64(recs[0].before.Sub(t0).Nanoseconds())/1e6)
	return recs[0].before.Sub(t0), nil
}

func (b *directBackend) write(m mutation) ([]time.Duration, error) {
	d, err := b.mutate("catalog.upsert", func() error { return b.st.cat.Upsert(m.upsert) })
	if err != nil {
		return nil, err
	}
	times := []time.Duration{d}
	if m.del < 0 {
		return times, nil
	}
	d, err = b.mutate("catalog.delete", func() error {
		removed, err := b.st.cat.Delete([]int{m.del})
		if err == nil && removed != 1 {
			err = fmt.Errorf("delete of item %d removed %d items", m.del, removed)
		}
		return err
	})
	if err != nil {
		return times, err
	}
	return append(times, d), nil
}

// directLoop replays the stream on one client for d, as closedLoop does
// over HTTP, and returns the ops run and the time they took.
func directLoop(tr *traffic, b *directBackend, d time.Duration, rec *recorder, stream int64) (int64, time.Duration) {
	start := time.Now()
	ops := runEpisodes(tr, b, tr.zipf(stream), start.Add(d), rec)
	return ops, time.Since(start)
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"toppkg/internal/server"
)

// recorder collects one phase's outcomes: per-kind latencies and the
// attempted / failed / malformed counts.
type recorder struct {
	mu        sync.Mutex
	lat       [numKinds][]float64 // ms
	attempted int64
	failed    int64
	malformed int64
	errs      []string
}

func (r *recorder) record(k opKind, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if errors.Is(err, errMalformed) {
			r.malformed++
		}
		if len(r.errs) < 5 {
			r.errs = append(r.errs, fmt.Sprintf("%s: %v", kindNames[k], err))
		}
		return
	}
	r.lat[k] = append(r.lat[k], float64(d.Nanoseconds())/1e6)
}

// merge adds o's counts (not latencies) into r.
func (r *recorder) merge(o *recorder) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.malformed += o.malformed
	r.errs = append(r.errs, o.errs...)
}

func (r *recorder) learn() []float64 {
	return append(append([]float64(nil), r.lat[opClick]...), r.lat[opFeedback]...)
}

// httpBackend drives the stack's HTTP API over at most `clients`
// connections.
type httpBackend struct {
	st *stack
	hc *http.Client
}

func newHTTPBackend(st *stack) *httpBackend {
	return &httpBackend{st: st, hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			IdleConnTimeout:     time.Minute,
		},
	}}
}

func (b *httpBackend) close() { b.hc.CloseIdleConnections() }

// call sends one request and decodes a 2xx body into out; a non-2xx
// status is a failure, an undecodable 2xx body a malformed answer.
func (b *httpBackend) call(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, b.st.url+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := b.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%w: %s %s: %v", errMalformed, method, path, err)
	}
	return nil
}

func (b *httpBackend) recommend(u *user) (*slate, error) {
	u.lastOK = false
	return b.recommendID(u.id)
}

func (b *httpBackend) recommendID(id string) (*slate, error) {
	var out server.SlateJSON
	if err := b.call(http.MethodGet, "/sessions/"+id+"/recommend", nil, &out); err != nil {
		return nil, err
	}
	s := &slate{}
	for _, p := range out.Recommended {
		s.rec = append(s.rec, canonical(p.Items))
		s.scores = append(s.scores, p.Score)
	}
	for _, p := range out.Random {
		s.random = append(s.random, canonical(p.Items))
	}
	n, ok := b.st.epochItems(out.Epoch)
	if !ok {
		return nil, fmt.Errorf("%w: slate names unknown epoch %d", errMalformed, out.Epoch)
	}
	if err := checkSlate(s, n); err != nil {
		return nil, err
	}
	return s, nil
}

func (b *httpBackend) click(u *user, chosen []int, shown [][]int) error {
	u.lastOK = false
	return b.call(http.MethodPost, "/sessions/"+u.id+"/click", server.ClickRequest{Chosen: chosen, Shown: shown}, nil)
}

func (b *httpBackend) feedback(u *user, winner, loser []int) error {
	u.lastOK = false
	return b.call(http.MethodPost, "/sessions/"+u.id+"/feedback", server.FeedbackRequest{Winner: winner, Loser: loser}, nil)
}

func (b *httpBackend) endSession(u *user) error {
	return b.call(http.MethodDelete, "/sessions/"+u.id, nil, nil)
}

type itemJSON struct {
	ID     int       `json:"id"`
	Name   string    `json:"name,omitempty"`
	Values []float64 `json:"values"`
}

func (b *httpBackend) write(m mutation) ([]time.Duration, error) {
	items := make([]itemJSON, len(m.upsert))
	for i, it := range m.upsert {
		items[i] = itemJSON{ID: it.ID, Name: it.Name, Values: it.Values}
	}
	t0 := time.Now()
	if err := b.call(http.MethodPost, "/catalog/items?wait=true", map[string]any{"items": items}, nil); err != nil {
		return nil, err
	}
	times := []time.Duration{time.Since(t0)}
	if m.del < 0 {
		return times, nil
	}
	t0 = time.Now()
	if err := b.call(http.MethodDelete, fmt.Sprintf("/catalog/items/%d?wait=true", m.del), nil, nil); err != nil {
		return times, err
	}
	return append(times, time.Since(t0)), nil
}

// activeSlot is one of the open loop's active sessions: arrival i carries
// the next op of active session i mod activeUsers, and a session whose
// episode ends is replaced by a fresh zipf draw. It persists across
// open-loop phases, so a timed phase continues the episodes its warm-up
// started; between phases it does not hold the session's lock.
type activeSlot struct {
	mu   sync.Mutex
	u    *user // locked by the open loop while it runs
	zipf *rand.Zipf
}

// arrival is one open-loop request: when it was due, and the active
// session slot it carries an op for.
type arrival struct {
	due  time.Time
	slot int
}

// openLoop sends ops on a fixed schedule of openRate per second for d,
// whatever the completions, over `clients` workers. Each op is timed from
// when it was due; the generator's own lateness is returned in ms.
func openLoop(tr *traffic, b backend, d time.Duration, rec *recorder) []float64 {
	n := int(openRate * d.Seconds())
	ch := make(chan arrival, n) // sized to the number of sends: the generator never blocks
	slots := tr.active
	for _, s := range slots {
		if s.u != nil {
			s.u.mu.Lock() // kept mid-episode by an earlier open loop
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range ch {
				s := slots[a.slot]
				s.mu.Lock()
				if s.u == nil {
					s.u = tr.claim(s.zipf)
				}
				k, err := tr.step(b, s.u)
				if k == opDelete {
					s.u.mu.Unlock()
					s.u = nil
				}
				s.mu.Unlock()
				rec.record(k, time.Since(a.due), err)
			}
		}()
	}
	lag := make([]float64, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / openRate * float64(time.Second)))
		waitUntil(due)
		lag = append(lag, math.Max(0, float64(time.Since(due).Nanoseconds())/1e6))
		ch <- arrival{due: due, slot: i % len(slots)}
	}
	close(ch)
	wg.Wait()
	for _, s := range slots {
		if s.u != nil {
			s.u.mu.Unlock()
		}
	}
	return lag
}

// spinWindow is how long before an arrival the generator stops sleeping
// and yields in a loop instead: a sleeping goroutine wakes up to a
// millisecond late, which would count in every latency measured from the
// due time.
const spinWindow = 2 * time.Millisecond

func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// closedLoop runs `clients` workers back to back for d, each running whole
// episodes of zipf-drawn sessions, and returns the session ops completed
// and the time they took.
func closedLoop(tr *traffic, b backend, d time.Duration, rec *recorder, stream int64) (int64, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var ops int64
	for c := 0; c < clients; c++ {
		zipf := tr.zipf(stream + int64(c))
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := runEpisodes(tr, b, zipf, deadline, rec)
			mu.Lock()
			ops += n
			mu.Unlock()
		}()
	}
	wg.Wait()
	return ops, time.Since(start)
}

// runEpisodes is one closed-loop client: until the deadline it claims a
// zipf-drawn session, runs its episode op after op, and moves on when the
// episode ends. A session cut off by the deadline keeps its place in the
// episode for a later phase.
func runEpisodes(tr *traffic, b backend, zipf *rand.Zipf, deadline time.Time, rec *recorder) int64 {
	var u *user
	var ops int64
	for time.Now().Before(deadline) {
		t0 := time.Now()
		ops++
		if u == nil {
			u = tr.claim(zipf)
		}
		k, err := tr.step(b, u)
		rec.record(k, time.Since(t0), err)
		if k == opDelete {
			u.mu.Unlock()
			u = nil
		}
	}
	if u != nil {
		u.mu.Unlock()
	}
	return ops
}

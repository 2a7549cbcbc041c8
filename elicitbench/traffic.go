package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"toppkg/internal/core"
	"toppkg/internal/feature"
)

// opKind names one operation of the stream.
type opKind int

const (
	opRecommend opKind = iota
	opClick
	opFeedback
	opDelete
	opWrite
	numKinds
)

var kindNames = [numKinds]string{"recommend", "click", "feedback", "delete", "write"}

// errMalformed marks a 2xx answer that fails the correctness checks.
var errMalformed = errors.New("malformed response")

// slate is the client's view of one recommend answer, already checked
// against the epoch it names: canonical (sorted) item lists.
type slate struct {
	rec    [][]int
	scores []float64
	random [][]int
}

// mutation is one scheduled catalogue write: an upsert batch, optionally
// followed by the delete of one stable ID (del < 0: none).
type mutation struct {
	upsert []feature.Item
	del    int
}

// backend carries the operation stream into the system under test: over
// HTTP for the end-to-end phases, by direct calls for the traced run.
type backend interface {
	recommend(u *user) (*slate, error)
	click(u *user, chosen []int, shown [][]int) error
	feedback(u *user, winner, loser []int) error
	endSession(u *user) error
	// write applies m and returns once it is visible, with the time from
	// send to visible of each mutation request (hence epoch swap) it
	// completed.
	write(m mutation) ([]time.Duration, error)
}

// splitmix is a small deterministic generator (SplitMix64), cheap enough
// to keep one per simulated session.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *splitmix) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// user is one simulated session: a hidden weight vector the benchmark
// answers with, the decision stream, and the episode's client-side state.
type user struct {
	mu      sync.Mutex
	id      string
	w       []float64
	rng     splitmix
	active  bool
	opsLeft int
	rec     [][]int
	scores  []float64
	all     [][]int
	// prefs is the episode's answered preferences (winner → losers by
	// package signature); a consistent user never contradicts them.
	prefs map[string][]string
	// last holds the engine counters after this session's previous direct
	// call; lastOK is false until a direct call has read them.
	last   core.Stats
	lastOK bool
}

// hiddenWeights derives the hidden weight vector a key seeds: uniform in
// (lo, 1] per dimension.
func hiddenWeights(key string, dims int, lo float64) []float64 {
	r := splitmix{s: hashString("hidden/" + key)}
	w := make([]float64, dims)
	for i := range w {
		w[i] = lo + (1-lo)*(1-r.float64())
	}
	return w
}

// newUser creates a session whose hidden weights follow from the taste
// key and whose decisions (episode lengths, op mix, feedback picks)
// follow from the stream key.
func newUser(id, taste string, wl workload, stream uint64) *user {
	return &user{
		id:  id,
		w:   hiddenWeights(taste, len(wl.aggs), wl.hiddenLo),
		rng: splitmix{s: stream * 0x9e3779b97f4a7c15},
	}
}

// utility is the hidden utility of a package under the given epoch's
// space; -Inf when an item is not in that epoch.
func (u *user) utility(sp *feature.Space, items []int) float64 {
	st := feature.NewState(sp)
	for _, id := range items {
		if id < 0 || id >= sp.N() {
			return math.Inf(-1)
		}
		st.Add(sp.Items[id])
	}
	return (&feature.Utility{W: u.w}).ScoreState(st)
}

func sig(items []int) string {
	var b strings.Builder
	for i, id := range items {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(id))
	}
	return b.String()
}

func (u *user) recordPref(winner, loser []int) {
	if u.prefs == nil {
		u.prefs = map[string][]string{}
	}
	w := sig(winner)
	u.prefs[w] = append(u.prefs[w], sig(loser))
}

// implies reports whether the episode's answers already place a above b.
func (u *user) implies(a, b []int) bool {
	target := sig(b)
	seen := map[string]bool{}
	stack := []string{sig(a)}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == target {
			return true
		}
		if !seen[cur] {
			seen[cur] = true
			stack = append(stack, u.prefs[cur]...)
		}
	}
	return false
}

// traffic is the generated operation stream of one run: the session
// population, the open loop's active sessions and the catalogue writer.
type traffic struct {
	wl    workload
	seed  int64
	space func() *feature.Space // the current epoch's space

	mu    sync.Mutex
	users []*user
	// perm maps a popularity rank to a session ID. Like the catalogue,
	// the user population is the workload's: the popularity-rank draws
	// and, keyed by rank, each user's hidden weights and decisions, so
	// where the costly episode starts fall and how far each user's
	// clicks move the pool do not vary between seeds. The seed decides
	// which session IDs the users get, hence the engines' random streams
	// (the server seeds each engine from its session ID) and with them
	// every sample, search, slate and answer; and it seeds the writes.
	perm []int

	active []*activeSlot // the open loop's sessions

	writeMu   sync.Mutex
	writes    int64 // scheduled writes run
	mutations int64 // mutation requests that completed
}

func newTraffic(wl workload, seed int64, pop int, space func() *feature.Space) *traffic {
	tr := &traffic{wl: wl, seed: seed, space: space, users: make([]*user, pop),
		perm: rand.New(rand.NewSource(seed)).Perm(pop)}
	for i := 0; i < activeUsers; i++ {
		tr.active = append(tr.active, &activeSlot{zipf: tr.zipf(1000 + int64(i))})
	}
	return tr
}

// user returns the session of popularity rank r, creating it on first use.
func (tr *traffic) user(r int) *user {
	idx := tr.perm[r]
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.users[idx] == nil {
		tr.users[idx] = newUser(fmt.Sprintf("u%06d", idx), fmt.Sprintf("rank%d", r), tr.wl, uint64(r)+1)
	}
	return tr.users[idx]
}

// claim draws sessions from z until it finds one no other client holds,
// and returns it locked.
func (tr *traffic) claim(z *rand.Zipf) *user {
	for {
		if u := tr.user(int(z.Uint64())); u.mu.TryLock() {
			return u
		}
	}
}

// zipf returns the popularity-rank draw of one generator stream.
func (tr *traffic) zipf(stream int64) *rand.Zipf {
	rng := rand.New(rand.NewSource(stream))
	return rand.NewZipf(rng, zipfS, 1, uint64(len(tr.users)-1))
}

// mutation is write j of the schedule: writeBatch repriced stable IDs;
// every fourth write also inserts an extra item or deletes the one the
// previous such write inserted.
func (tr *traffic) mutation(j int64) mutation {
	r := splitmix{s: uint64(tr.seed)*0x2545f4914f6cdd1d + uint64(j)}
	dims := len(tr.wl.aggs)
	vals := func() []float64 {
		v := make([]float64, dims)
		for i := range v {
			v[i] = r.float64()
		}
		return v
	}
	m := mutation{del: -1}
	for i := 0; i < writeBatch; i++ {
		m.upsert = append(m.upsert, feature.Item{ID: r.intn(tr.wl.items), Values: vals()})
	}
	extra := tr.wl.items + int(j/8%64)
	switch j % 8 {
	case 3:
		m.upsert = append(m.upsert, feature.Item{ID: extra, Name: "extra", Values: vals()})
	case 7:
		m.del = extra
	}
	return m
}

// doWrite runs the next scheduled write and records each of its mutation
// requests; writes are serialized so each request becomes exactly one
// epoch swap.
func (tr *traffic) doWrite(b backend, rec *recorder) {
	tr.writeMu.Lock()
	defer tr.writeMu.Unlock()
	m := tr.mutation(tr.writes)
	tr.writes++
	times, err := b.write(m)
	tr.mutations += int64(len(times))
	for _, d := range times {
		rec.record(opWrite, d, nil)
	}
	if err != nil {
		rec.record(opWrite, 0, err)
	}
}

// step runs the session's next operation; the caller holds u.mu.
func (tr *traffic) step(b backend, u *user) (opKind, error) {
	if u.active && u.opsLeft <= 0 {
		err := b.endSession(u)
		u.active, u.rec, u.scores, u.all, u.prefs = false, nil, nil, nil, nil
		u.last, u.lastOK = core.Stats{}, true
		return opDelete, err
	}
	if !u.active {
		u.active = true
		u.opsLeft = episodeMin + u.rng.intn(episodeMax-episodeMin+1)
	}
	u.opsLeft--
	op := opRecommend
	if u.rec != nil {
		switch r := u.rng.intn(mixRecommend + mixClick + mixFeedback); {
		case r < mixRecommend:
		case r < mixRecommend+mixClick:
			op = opClick
		default:
			op = opFeedback
		}
	}
	sp := tr.space()
	switch op {
	case opClick:
		best, bu := -1, math.Inf(-1)
		for i, p := range u.all {
			if v := u.utility(sp, p); v > bu {
				best, bu = i, v
			}
		}
		if best < 0 {
			break
		}
		chosen := u.all[best]
		if err := b.click(u, chosen, u.all); err != nil {
			return op, err
		}
		for _, p := range u.all {
			if sig(p) != sig(chosen) {
				u.recordPref(chosen, p)
			}
		}
		return op, nil
	case opFeedback:
		n := len(u.rec)
		i, off := u.rng.intn(n), u.rng.intn(n)
		ui := u.utility(sp, u.rec[i])
		for c := 0; c < n; c++ {
			k := (off + c) % n
			uk := u.utility(sp, u.rec[k])
			if k == i || uk == ui || math.IsInf(uk, -1) || math.IsInf(ui, -1) || sig(u.rec[i]) == sig(u.rec[k]) {
				continue
			}
			win, lose := u.rec[i], u.rec[k]
			if uk > ui {
				win, lose = lose, win
			}
			if u.implies(lose, win) {
				continue
			}
			if err := b.feedback(u, win, lose); err != nil {
				return op, err
			}
			u.recordPref(win, lose)
			return op, nil
		}
	}
	// A recommend, or a reaction with nothing valid to react to.
	s, err := b.recommend(u)
	if err != nil {
		return opRecommend, err
	}
	u.rec, u.scores = s.rec, s.scores
	u.all = append(append([][]int(nil), s.rec...), s.random...)
	return opRecommend, nil
}

// canonical returns a sorted copy of a wire item list.
func canonical(items []int) []int {
	c := append([]int(nil), items...)
	sort.Ints(c)
	return c
}

// checkSlate verifies one recommend answer against the epoch it names:
// slateK distinct recommended packages of 1..phi distinct valid items each,
// scores not increasing down the list, valid exploration packages.
func checkSlate(s *slate, items int) error {
	if len(s.rec) != slateK || len(s.scores) != slateK {
		return fmt.Errorf("%w: %d recommended packages, want %d", errMalformed, len(s.rec), slateK)
	}
	seen := map[string]bool{}
	for i, p := range s.rec {
		if err := checkPackage(p, items); err != nil {
			return err
		}
		if seen[sig(p)] {
			return fmt.Errorf("%w: package %v recommended twice", errMalformed, p)
		}
		seen[sig(p)] = true
		if i > 0 && !(s.scores[i] <= s.scores[i-1]) {
			return fmt.Errorf("%w: score %g after %g", errMalformed, s.scores[i], s.scores[i-1])
		}
	}
	for _, p := range s.random {
		if err := checkPackage(p, items); err != nil {
			return err
		}
	}
	return nil
}

// checkPackage verifies a canonical package: 1..phi distinct item IDs,
// each valid in an epoch of the given item count.
func checkPackage(p []int, items int) error {
	if len(p) < 1 || len(p) > phi {
		return fmt.Errorf("%w: package of %d items", errMalformed, len(p))
	}
	for i, id := range p {
		if id < 0 || id >= items {
			return fmt.Errorf("%w: item %d outside the epoch's %d items", errMalformed, id, items)
		}
		if i > 0 && p[i-1] == id {
			return fmt.Errorf("%w: item %d repeated", errMalformed, id)
		}
	}
	return nil
}

package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"toppkg/internal/catalog"
	"toppkg/internal/core"
	"toppkg/internal/feature"
	"toppkg/internal/gaussmix"
	"toppkg/internal/server"
	"toppkg/internal/session"
)

// stack is the serving stack under test, built in-process from the
// public constructors and served on a loopback listener.
type stack struct {
	cat    *catalog.Catalog
	mgr    *session.Manager
	srv    *http.Server
	url    string
	served chan error // the listener goroutine's exit
	swaps  *swapLog
}

// swapRec times one epoch swap from the benchmark's two subscribers: the
// first runs before the result cache's reconcile, the second after it.
type swapRec struct {
	epoch       uint64
	before      time.Time
	after       time.Time
	reconcileNS int64
}

// swapLog records every epoch swap and the item count of every epoch, so
// slates can be checked against the epoch they name.
type swapLog struct {
	mu     sync.Mutex
	sizes  map[uint64]int
	recs   []swapRec
	notify chan struct{} // one-slot wake-up for waiters on the next swap
}

func (l *swapLog) first(ep *catalog.Epoch, _ *catalog.ChangeSet) {
	now := time.Now()
	l.mu.Lock()
	l.sizes[ep.ID] = ep.Space.N()
	l.recs = append(l.recs, swapRec{epoch: ep.ID, before: now})
	l.mu.Unlock()
}

func (l *swapLog) second(ep *catalog.Epoch, _ *catalog.ChangeSet) {
	now := time.Now()
	l.mu.Lock()
	for i := len(l.recs) - 1; i >= 0; i-- {
		if l.recs[i].epoch == ep.ID {
			l.recs[i].after = now
			l.recs[i].reconcileNS = now.Sub(l.recs[i].before).Nanoseconds()
			break
		}
	}
	l.mu.Unlock()
	select {
	case l.notify <- struct{}{}:
	default:
	}
}

// count reports how many swaps completed both subscribers.
func (l *swapLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, r := range l.recs {
		if !r.after.IsZero() {
			n++
		}
	}
	return n
}

// since returns the swap records from index i on.
func (l *swapLog) since(i int) []swapRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i >= len(l.recs) {
		return nil
	}
	return append([]swapRec(nil), l.recs[i:]...)
}

// waitCount blocks until at least n swaps completed both subscribers.
func (l *swapLog) waitCount(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for l.count() < n {
		left := time.Until(deadline)
		if left <= 0 {
			return fmt.Errorf("timed out waiting for epoch swap %d", n)
		}
		select {
		case <-l.notify:
		case <-time.After(left):
		}
	}
	return nil
}

// epochItems reports the item count of the given epoch.
func (st *stack) epochItems(id uint64) (int, bool) {
	for tries := 0; tries < 100; tries++ {
		st.swaps.mu.Lock()
		n, ok := st.swaps.sizes[id]
		st.swaps.mu.Unlock()
		if ok {
			return n, true
		}
		// A reader can see a new epoch before its subscribers ran.
		if cur := st.cat.Current(); cur.ID == id {
			return cur.Space.N(), true
		}
		time.Sleep(time.Millisecond)
	}
	return 0, false
}

// engineConfig is the engine configuration of a workload. Searches within
// a recommend run sequentially (the core default, as in cmd/loadgen's
// in-process stack): with one connection per CPU, fanning each recommend
// out over every CPU only makes requests contend.
func (wl workload) engineConfig() core.Config {
	mean := make([]float64, len(wl.aggs))
	for i := range mean {
		mean[i] = wl.priorMean
	}
	return core.Config{
		K:           slateK,
		SampleCount: sampleCount,
		Prior:       gaussmix.Gaussian(mean, wl.priorStd),
		Search:      searchOptions(),
	}
}

// buildStack stands the serving stack up over the given items.
func buildStack(wl workload, items []feature.Item) (*stack, error) {
	cat, err := catalog.New(catalog.Config{
		Profile:        feature.SimpleProfile(wl.aggs...),
		MaxPackageSize: phi,
		Items:          items,
	})
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	log := &swapLog{sizes: map[uint64]int{}, notify: make(chan struct{}, 1)}
	cur := cat.Current()
	log.sizes[cur.ID] = cur.Space.N()
	cat.Subscribe(log.first)
	shared, err := core.NewLiveShared(wl.engineConfig(), cat)
	if err != nil {
		cat.Close()
		return nil, fmt.Errorf("shared: %w", err)
	}
	cat.Subscribe(log.second)
	mgr, err := session.NewManager(session.Config{Shared: shared, Capacity: capacity, Store: session.NewMemStore()})
	if err != nil {
		cat.Close()
		return nil, fmt.Errorf("manager: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		cat.Close()
		return nil, err
	}
	srv := server.NewHTTPServer(ln.Addr().String(), server.New(mgr, server.Options{Catalog: cat}), server.Timeouts{})
	st := &stack{cat: cat, mgr: mgr, srv: srv, url: "http://" + ln.Addr().String(),
		served: make(chan error, 1), swaps: log}
	go func() { st.served <- srv.Serve(ln) }()
	return st, nil
}

// close shuts the listener down and waits for it, then stops the manager
// and the catalogue's rebuilder.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = st.srv.Shutdown(ctx) // a shutdown timeout leaves nothing to report
	<-st.served
	st.mgr.Close()
	st.cat.Close()
}

package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"toppkg/internal/feature"
)

const (
	qualityUsers = 4    // fixed hidden users of the quality pass
	qualityCap   = 8    // click rounds before a user counts as never converged
	qualityTol   = 0.05 // "within 5% of the reference best"
)

// qualityPass runs a fixed set of hidden users one after another on a
// fresh stack over the workload's initial catalogue, so its answers do not
// depend on the traffic before it. It returns the mean number of click
// rounds until the top recommended package's hidden utility comes within
// qualityTol of the user's reference best (search.Index.TopK on the hidden
// vector), and an FNV hash of every slate's recommended signatures.
func qualityPass(wl workload, items []feature.Item, users int) (float64, uint64, error) {
	st, err := buildStack(wl, items)
	if err != nil {
		return 0, 0, err
	}
	defer st.close()
	b := newHTTPBackend(st)
	defer b.close()
	ix := st.cat.Current().Index
	sp := ix.Space()
	opts := searchOptions()
	opts.K = slateK
	h := fnv.New64a()
	total := 0
	for q := 0; q < users; q++ {
		id := fmt.Sprintf("quality-%d", q)
		u := newUser(id, id, wl, 0) // no decisions: it only clicks
		util, err := feature.NewUtility(sp.Profile, u.w)
		if err != nil {
			return 0, 0, err
		}
		ref, err := ix.TopK(util, opts)
		if err != nil || len(ref.Packages) == 0 {
			return 0, 0, fmt.Errorf("reference search for %s: %v", u.id, err)
		}
		goal := ref.Packages[0].Utility - qualityTol*math.Abs(ref.Packages[0].Utility)
		rounds := qualityCap
		for r := 1; r <= qualityCap; r++ {
			s, err := b.recommendID(u.id)
			if err != nil {
				return 0, 0, fmt.Errorf("quality recommend: %w", err)
			}
			for _, p := range s.rec {
				fmt.Fprintf(h, "%s;", sig(p))
			}
			if u.utility(sp, s.rec[0]) >= goal {
				rounds = r
				break
			}
			all := append(append([][]int(nil), s.rec...), s.random...)
			best, bu := 0, math.Inf(-1)
			for i, p := range all {
				if v := u.utility(sp, p); v > bu {
					best, bu = i, v
				}
			}
			if err := b.click(u, all[best], all); err != nil {
				return 0, 0, fmt.Errorf("quality click: %w", err)
			}
		}
		fmt.Fprintf(h, "|%d|", rounds)
		total += rounds
	}
	return float64(total) / float64(users), h.Sum64(), nil
}

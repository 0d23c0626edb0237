package ratio_test

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/ncd"
	"repro/internal/ratio"
	"repro/internal/testutil"
)

// TestOracleMatchesTextbookChecker probes every corpus graph at λ = ρ* and
// just around it, plus random parameters, and demands the oracle's verdict
// equal that of ncd's textbook Bellman–Ford — the checker the certifier
// uses. Every negative verdict's witness must be a cycle of the graph with
// negative scaled weight den·w − num·t.
func TestOracleMatchesTextbookChecker(t *testing.T) {
	corpus := testutil.RatioCorpus(t)
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	sort.Strings(names)
	howard := mustByName(t, "howard")
	rng := rand.New(rand.NewSource(12))
	var negatives, feasibles int
	for _, name := range names {
		g := corpus[name]
		res, err := ratio.MinimumCycleRatio(g, howard, core.Options{Certify: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		minW, maxW := g.WeightRange()
		params := [][2]int64{{res.Ratio.Num(), res.Ratio.Den()}}
		for i := 0; i < 6; i++ {
			den := 1 + rng.Int63n(40)
			mid := res.Ratio.Num() * den / res.Ratio.Den()
			params = append(params, [2]int64{mid + rng.Int63n(5) - 2, den})
			params = append(params, [2]int64{minW*den + rng.Int63n((maxW-minW+1)*den), den})
		}
		for _, p := range params {
			num, den := p[0], p[1]
			neg, cycle, err := ratio.ProbeOnce(g, num, den)
			want, werr := ncd.HasNegativeRatioCycle(g, num, den, nil)
			if err != nil || werr != nil {
				if !errors.Is(err, ratio.ErrNumericRange) {
					t.Fatalf("%s at %d/%d: oracle err %v, checker err %v", name, num, den, err, werr)
				}
				continue
			}
			if neg != want {
				t.Fatalf("%s at %d/%d: oracle says negative=%v, textbook checker says %v", name, num, den, neg, want)
			}
			if !neg {
				feasibles++
				continue
			}
			negatives++
			if err := g.ValidateCycle(cycle); err != nil {
				t.Fatalf("%s at %d/%d: witness: %v", name, num, den, err)
			}
			if w := den*g.CycleWeight(cycle) - num*g.CycleTransit(cycle); w >= 0 {
				t.Fatalf("%s at %d/%d: witness scaled weight %d, want < 0", name, num, den, w)
			}
		}
	}
	if negatives == 0 || feasibles == 0 {
		t.Fatalf("probe mix degenerate: %d negative, %d feasible", negatives, feasibles)
	}
}

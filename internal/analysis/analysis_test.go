package analysis

import (
	"math"
	"math/big"
	"testing"
)

// bestIndexNodes is ti(h) in the best case with uniform page size,
// equation (2): ti(h) = (F^h - 1)/(F - 1), the reference the best-case
// ratio of equation (3) is checked against.
func bestIndexNodes(f, h int) *big.Int {
	num := new(big.Int).Sub(BestDataNodes(f, h), big.NewInt(1))
	return num.Div(num, big.NewInt(int64(f-1)))
}

func TestBestCaseKnownValues(t *testing.T) {
	if got := BestDataNodes(24, 3); got.Cmp(big.NewInt(13824)) != 0 {
		t.Fatalf("td_best(24,3) = %v", got)
	}
	// ti = 1 + F + F^2 = 601
	if got := bestIndexNodes(24, 3); got.Cmp(big.NewInt(601)) != 0 {
		t.Fatalf("ti_best(24,3) = %v", got)
	}
}

func TestWorstRecursionMatchesClosedForm(t *testing.T) {
	// Equation (4)'s recursion equals C(F+h-1, h) exactly — the exact
	// antecedent of the paper's approximation (5).
	for _, f := range []int{4, 24, 60, 120} {
		for h := 1; h <= 12; h++ {
			rec := WorstDataNodes(f, h)
			closed := WorstDataNodesClosed(f, h)
			if rec.Cmp(closed) != 0 {
				t.Fatalf("F=%d h=%d: recursion %v != closed %v", f, h, rec, closed)
			}
		}
	}
}

func TestWorstCaseReductionFactorHFactorial(t *testing.T) {
	// Equation (5): td_worst ≈ F^h / h! for F >> h. With F=120, h=5 the
	// ratio best/worst must be within a few percent of h!.
	f, h := 120, 5
	best := new(big.Rat).SetInt(BestDataNodes(f, h))
	worst := WorstDataNodes(f, h)
	ratio := new(big.Rat).Quo(best, worst)
	rf, _ := ratio.Float64()
	hfact := 120.0 // 5!
	if math.Abs(rf-hfact)/hfact > 0.1 {
		t.Fatalf("best/worst = %v, want ≈ %v", rf, hfact)
	}
}

func TestIndexToDataRatioNearOneOverF(t *testing.T) {
	// Equation (9): ti/td ≈ 1/F in the worst case (and (3) in the best).
	for _, f := range []int{24, 120} {
		for h := 2; h <= 8; h++ {
			ti := WorstIndexNodes(f, h)
			td := WorstDataNodes(f, h)
			ratio := new(big.Rat).Quo(ti, td)
			rf, _ := ratio.Float64()
			if math.Abs(rf*float64(f)-1) > 0.15 {
				t.Fatalf("F=%d h=%d: ti/td = %v, want ≈ 1/%d", f, h, rf, f)
			}
			bestRatio := new(big.Rat).SetFrac(bestIndexNodes(f, h), BestDataNodes(f, h))
			bf, _ := bestRatio.Float64()
			if math.Abs(bf*float64(f)-1) > 0.15 {
				t.Fatalf("F=%d h=%d: best ti/td = %v", f, h, bf)
			}
		}
	}
}

func TestScaledPagesRemovePenalty(t *testing.T) {
	// Equation (12): with level-scaled pages the worst case holds
	// F(F+1)^(h-1) data nodes — within (1+1/F)^(h-1) of the best case,
	// i.e. "the same as the best case for practical fan-out ratios".
	for _, f := range []int{24, 120} {
		for h := 1; h <= 9; h++ {
			scaled := new(big.Float).SetInt(ScaledWorstDataNodes(f, h))
			best := new(big.Float).SetInt(BestDataNodes(f, h))
			ratio, _ := new(big.Float).Quo(scaled, best).Float64()
			lo := 1.0
			hi := math.Pow(1+1/float64(f), float64(h-1)) + 1e-9
			if ratio < lo-1e-9 || ratio > hi {
				t.Fatalf("F=%d h=%d: scaled/best = %v outside [1, %v]", f, h, ratio, hi)
			}
		}
	}
}

func TestScaledIndexSizeRecursionMatchesApproximation(t *testing.T) {
	// Equation (18): si(h) ≈ B·F^(h-1); exact value from (17) must be
	// within (1+2/F)^h of it.
	b, f := 4096, 120
	for h := 1; h <= 8; h++ {
		si := ScaledIndexSize(b, f, h)
		approx := new(big.Int).Exp(big.NewInt(int64(f)), big.NewInt(int64(h-1)), nil)
		approx.Mul(approx, big.NewInt(int64(b)))
		r := new(big.Rat).SetFrac(si, approx)
		rf, _ := r.Float64()
		if rf < 1 || rf > math.Pow(1+2/float64(f), float64(h)) {
			t.Fatalf("h=%d: si/approx = %v", h, rf)
		}
	}
}

func TestFig7SeriesGapEqualsLogFactorial(t *testing.T) {
	// The shaded gap in Figures 7-1/7-2 is log_F(h!); with the closed
	// form C(F+h-1,h) the measured gap approaches it from below and gets
	// within ~h(h-1)/(2F·lnF) for F >> h.
	for _, f := range []int{24, 120} {
		rows := Fig7Series(f, 9)
		for _, r := range rows {
			if math.Abs(r.BestLogF-float64(r.H)) > 1e-9 {
				t.Fatalf("best curve must be the identity: h=%d got %v", r.H, r.BestLogF)
			}
			if r.Gap < -1e-9 {
				t.Fatalf("negative gap at h=%d", r.H)
			}
			if r.Gap > r.LogFHFactorial+1e-9 {
				t.Fatalf("gap %v exceeds log_F h! = %v at h=%d (F=%d)", r.Gap, r.LogFHFactorial, r.H, f)
			}
			// Within 35% of the analytic value for h >= 3.
			if r.H >= 3 && r.LogFHFactorial > 0 {
				rel := (r.LogFHFactorial - r.Gap) / r.LogFHFactorial
				if rel > 0.35 {
					t.Fatalf("F=%d h=%d: gap %v too far from log_F h! %v", f, r.H, r.Gap, r.LogFHFactorial)
				}
			}
		}
	}
}

func TestPaperFig71HeightClaims(t *testing.T) {
	// §7.2 reads Figure 7-1 (F=24): "a best-case three-level index will
	// have to grow to height 4 ... a best-case tree of height 4 will have
	// to grow to height 6, and a best-case tree of height 5 will have to
	// grow to height 10."
	rows := CapacityTable(24, 1024, 5)
	for _, r := range rows {
		switch r.H {
		case 3:
			if r.ExtraLevels != 1 {
				t.Fatalf("F=24 h=3: extra = %d, paper says 1", r.ExtraLevels)
			}
		case 4:
			if r.ExtraLevels != 2 {
				t.Fatalf("F=24 h=4: extra = %d, paper says 2", r.ExtraLevels)
			}
		case 5:
			// The paper reads "height 10" (extra 5) off its figure, which
			// plots the F^h/h! approximation; the exact binomial model
			// gives height 9 (extra 4). Accept both and record the
			// discrepancy in EXPERIMENTS.md.
			if r.ExtraLevels < 4 || r.ExtraLevels > 5 {
				t.Fatalf("F=24 h=5: extra = %d, paper says 5 (exact model: 4)", r.ExtraLevels)
			}
		}
	}
}

func TestPaperFig72HeightClaims(t *testing.T) {
	// §7.2 on Figure 7-2 (F=120): "a tree of height 4 need only grow to
	// height 5, and a tree of height 6 need only grow to a height between
	// 8 and 9."
	rows := CapacityTable(120, 1024, 6)
	for _, r := range rows {
		switch r.H {
		case 4:
			if r.ExtraLevels != 1 {
				t.Fatalf("F=120 h=4: extra = %d, paper says 1", r.ExtraLevels)
			}
		case 6:
			if r.ExtraLevels < 2 || r.ExtraLevels > 3 {
				t.Fatalf("F=120 h=6: extra = %d, paper says between 2 and 3", r.ExtraLevels)
			}
		}
	}
}

func TestPaperPetabyteClaim(t *testing.T) {
	// §7.2: with F=120 and 1KB data pages, a height-9 worst-case tree
	// (best-case height 6 grown to 8–9) corresponds to ~3 PB — more
	// precisely, the best-case height-6 file is ~3×10^15 bytes? The paper
	// says "If the data pages are 1 Kbyte each, the latter corresponds to
	// a 3 Petabyte file". Height 6 at F=120: 120^6 × 1024 ≈ 3.06e15. ✓
	best := BestDataNodes(120, 6)
	bytes := new(big.Int).Mul(best, big.NewInt(1024))
	want := new(big.Int).SetUint64(3_000_000_000_000_000)
	lo := new(big.Int).Div(want, big.NewInt(2))
	hi := new(big.Int).Mul(want, big.NewInt(2))
	if bytes.Cmp(lo) < 0 || bytes.Cmp(hi) > 0 {
		t.Fatalf("height-6 F=120 file = %s, paper says ~3PB", HumanBytes(bytes))
	}
}

func TestHumanBytes(t *testing.T) {
	cases := []struct {
		v    int64
		want string
	}{
		{512, "512B"},
		{2048, "2.0KB"},
		{3_100_000_000, "3.1GB"},
	}
	for _, c := range cases {
		if got := HumanBytes(big.NewInt(c.v)); got != c.want {
			t.Fatalf("HumanBytes(%d) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestLogFHandlesHugeValues(t *testing.T) {
	// Values beyond float64 range must still produce finite logs.
	huge := new(big.Int).Exp(big.NewInt(120), big.NewInt(400), nil)
	got := logFInt(huge, 120)
	if math.Abs(got-400) > 1e-6 {
		t.Fatalf("log_120(120^400) = %v", got)
	}
}

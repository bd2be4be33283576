// Package analysis evaluates the worst-case model of §7 of the paper —
// equations (1) through (18) — exactly, using big-integer/rational
// arithmetic, so the harness can regenerate Figures 7-1 and 7-2 and the
// capacity claims of §7.3 without floating-point drift.
//
// Terminology follows the paper: F is the fan-out ratio, h the index
// height, td(h) the number of data nodes reachable from a height-h root,
// ti(h) the number of index nodes, B the base index page size.
package analysis

import (
	"math"
	"math/big"
)

// BestDataNodes returns td(h) in the best case with uniform page size:
// equation (1), td(h) = F^h.
func BestDataNodes(f, h int) *big.Int {
	return new(big.Int).Exp(big.NewInt(int64(f)), big.NewInt(int64(h)), nil)
}

// WorstDataNodes returns td(h) in the worst case with uniform page size,
// by the exact recursion of equation (4):
//
//	td(h) = (F/h) · (1 + Σ_{k=1}^{h-1} td(k))
//
// evaluated in rational arithmetic (the paper notes the count is exact
// only when F/x is integral at every level; the rational value is the
// model's continuous extension).
func WorstDataNodes(f, h int) *big.Rat {
	td := make([]*big.Rat, h+1)
	sum := new(big.Rat) // Σ td(k), k=1..x-1
	for x := 1; x <= h; x++ {
		inner := new(big.Rat).Add(big.NewRat(1, 1), sum)
		td[x] = inner.Mul(inner, big.NewRat(int64(f), int64(x)))
		sum = new(big.Rat).Add(sum, td[x])
	}
	return td[h]
}

// WorstDataNodesClosed returns the closed form of equation (5)'s exact
// antecedent: td(h) = (F+h-1)! / ((F-1)! · h!) = C(F+h-1, h). It equals
// WorstDataNodes identically (proved by the hockey-stick identity), which
// the tests verify.
func WorstDataNodesClosed(f, h int) *big.Rat {
	b := new(big.Int).Binomial(int64(f+h-1), int64(h))
	return new(big.Rat).SetInt(b)
}

// WorstIndexNodes returns ti(h) in the worst case with uniform page size,
// by the exact recursion of equation (6):
//
//	ti(h) = 1 + (F/h) · Σ_{k=1}^{h-1} ti(k)
func WorstIndexNodes(f, h int) *big.Rat {
	ti := make([]*big.Rat, h+1)
	sum := new(big.Rat)
	for x := 1; x <= h; x++ {
		scaled := new(big.Rat).Mul(sum, big.NewRat(int64(f), int64(x)))
		ti[x] = scaled.Add(scaled, big.NewRat(1, 1))
		sum = new(big.Rat).Add(sum, ti[x])
	}
	return ti[h]
}

// ScaledWorstDataNodes returns td(h) in the worst case with page size B·x
// at index level x: equation (12), td(h) = F·(F+1)^(h-1).
func ScaledWorstDataNodes(f, h int) *big.Int {
	v := new(big.Int).Exp(big.NewInt(int64(f+1)), big.NewInt(int64(h-1)), nil)
	return v.Mul(v, big.NewInt(int64(f)))
}

// ScaledWorstIndexNodes returns ti(h) in the worst case with level-scaled
// pages: equation (14), ti(h) = (F+1)^(h-1).
func ScaledWorstIndexNodes(f, h int) *big.Int {
	return new(big.Int).Exp(big.NewInt(int64(f+1)), big.NewInt(int64(h-1)), nil)
}

// ScaledIndexSize returns si(h), the total index size in bytes with
// level-scaled pages, by the exact recursion of equation (17):
//
//	si(1) = B;  si(h+1) = si(h)·(F+1) + B
func ScaledIndexSize(b, f, h int) *big.Int {
	si := big.NewInt(int64(b))
	for x := 1; x < h; x++ {
		si.Mul(si, big.NewInt(int64(f+1)))
		si.Add(si, big.NewInt(int64(b)))
	}
	return si
}

// logF returns log base F of a positive rational, for plotting the
// figures' vertical axis.
func logF(x *big.Rat, f int) float64 {
	v, _ := x.Float64()
	if v > 0 && !math.IsInf(v, 0) {
		return math.Log(v) / math.Log(float64(f))
	}
	// Fall back to log via numerator/denominator bit lengths for huge
	// values beyond float64 range.
	num := new(big.Float).SetInt(x.Num())
	den := new(big.Float).SetInt(x.Denom())
	ln := bigLog(num) - bigLog(den)
	return ln / math.Log(float64(f))
}

// bigLog returns the natural log of a positive big.Float.
func bigLog(x *big.Float) float64 {
	mant := new(big.Float)
	exp := x.MantExp(mant)
	m, _ := mant.Float64()
	return math.Log(m) + float64(exp)*math.Ln2
}

// logFInt is logF for integers.
func logFInt(x *big.Int, f int) float64 {
	return logF(new(big.Rat).SetInt(x), f)
}

// logFactorialLogF returns log_F(h!): the analytic gap between best- and
// worst-case curves in Figures 7-1/7-2.
func logFactorialLogF(h, f int) float64 {
	s := 0.0
	for i := 2; i <= h; i++ {
		s += math.Log(float64(i))
	}
	return s / math.Log(float64(f))
}

// Fig7Row is one point of the Figure 7-1/7-2 series.
type Fig7Row struct {
	H int
	// BestLogF = log_F td_best(h) (identically h).
	BestLogF float64
	// WorstLogF = log_F td_worst(h).
	WorstLogF float64
	// Gap = BestLogF - WorstLogF; analytically log_F(h!).
	Gap float64
	// LogFHFactorial is the analytic value of the gap for comparison.
	LogFHFactorial float64
}

// Fig7Series computes the series plotted in Figure 7-1 (F=24) and 7-2
// (F=120) for h = 1..maxH.
func Fig7Series(f, maxH int) []Fig7Row {
	rows := make([]Fig7Row, 0, maxH)
	for h := 1; h <= maxH; h++ {
		best := logFInt(BestDataNodes(f, h), f)
		worst := logF(WorstDataNodes(f, h), f)
		rows = append(rows, Fig7Row{
			H:              h,
			BestLogF:       best,
			WorstLogF:      worst,
			Gap:            best - worst,
			LogFHFactorial: logFactorialLogF(h, f),
		})
	}
	return rows
}

// CapacityRow is one line of the §7.3 capacity table: the data set sizes
// a height-h tree supports in the best and the (uniform-page) worst case,
// and the extra height the worst case needs to match the best case.
type CapacityRow struct {
	H int
	// BestBytes / WorstBytes are the maximum data set sizes (data nodes ×
	// page bytes) with uniform index pages.
	BestBytes  *big.Int
	WorstBytes *big.Int
	// ScaledWorstBytes is the worst case with level-scaled pages (§7.3),
	// which matches the best case up to the (F+1)/F factor.
	ScaledWorstBytes *big.Int
	// ExtraLevels is the smallest e such that td_worst(h+e) >= td_best(h):
	// how much taller the uniform-page worst case must grow (Figure 7-1's
	// shaded regions).
	ExtraLevels int
}

// CapacityTable evaluates the §7.3 summary for h = 1..maxH with the given
// data page size in bytes.
func CapacityTable(f, pageBytes, maxH int) []CapacityRow {
	rows := make([]CapacityRow, 0, maxH)
	pb := big.NewInt(int64(pageBytes))
	for h := 1; h <= maxH; h++ {
		best := BestDataNodes(f, h)
		worst := WorstDataNodes(f, h)
		worstInt := new(big.Int).Quo(worst.Num(), worst.Denom())
		extra := 0
		for {
			cand := WorstDataNodes(f, h+extra)
			if cand.Cmp(new(big.Rat).SetInt(best)) >= 0 {
				break
			}
			extra++
			if extra > 64 {
				break
			}
		}
		rows = append(rows, CapacityRow{
			H:                h,
			BestBytes:        new(big.Int).Mul(best, pb),
			WorstBytes:       new(big.Int).Mul(worstInt, pb),
			ScaledWorstBytes: new(big.Int).Mul(ScaledWorstDataNodes(f, h), pb),
			ExtraLevels:      extra,
		})
	}
	return rows
}

// HumanBytes renders a byte count with a binary-ish magnitude suffix the
// way the paper quotes sizes (100 Megabytes, 25 Terabytes, 3 Petabytes).
func HumanBytes(x *big.Int) string {
	f := new(big.Float).SetInt(x)
	units := []string{"B", "KB", "MB", "GB", "TB", "PB", "EB", "ZB", "YB"}
	i := 0
	thousand := big.NewFloat(1000)
	for i < len(units)-1 && f.Cmp(thousand) >= 0 {
		f.Quo(f, thousand)
		i++
	}
	v, _ := f.Float64()
	if v >= 100 {
		return trimFloat(v, 0) + units[i]
	}
	return trimFloat(v, 1) + units[i]
}

func trimFloat(v float64, prec int) string {
	return big.NewFloat(v).Text('f', prec)
}

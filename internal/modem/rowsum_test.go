package modem

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"colorbars/internal/colorspace"
)

// randomRow returns cols pixels with channels uniform in [0, 255).
func randomRow(rng *rand.Rand, cols int) []colorspace.RGB {
	px := make([]colorspace.RGB, cols)
	for i := range px {
		px[i] = colorspace.RGB{
			R: rng.Float64() * 255,
			G: rng.Float64() * 255,
			B: rng.Float64() * 255,
		}
	}
	return px
}

// TestSumPix12MatchesScalar pins the packed row-sum kernel, and the
// rowSum wrapper the front end runs (kernel prefix plus in-order
// tail), against a plain left-to-right fold: channel sums must agree
// to within re-association rounding for random pixel data at several
// kernel widths and at every row width from 1 to 33.
func TestSumPix12MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	check := func(name string, cols, trial int, px []colorspace.RGB, gr, gg, gb float64) {
		t.Helper()
		var wr, wg, wb float64
		for _, p := range px {
			wr += p.R
			wg += p.G
			wb += p.B
		}
		const tol = 1e-9
		if math.Abs(gr-wr) > tol*math.Max(1, wr) ||
			math.Abs(gg-wg) > tol*math.Max(1, wg) ||
			math.Abs(gb-wb) > tol*math.Max(1, wb) {
			t.Fatalf("%s cols=%d trial=%d: (%g,%g,%g) vs scalar (%g,%g,%g)",
				name, cols, trial, gr, gg, gb, wr, wg, wb)
		}
	}
	for _, cols := range []int{4, 8, 24, 96, 400} {
		for trial := 0; trial < 50; trial++ {
			px := randomRow(rng, cols)
			gr, gg, gb := sumPix12(&px[0], cols/4)
			check("sumPix12", cols, trial, px, gr, gg, gb)
		}
	}
	for cols := 1; cols <= 33; cols++ {
		for trial := 0; trial < 20; trial++ {
			px := randomRow(rng, cols)
			gr, gg, gb := rowSum(px)
			check("rowSum", cols, trial, px, gr, gg, gb)
		}
	}
}

// TestSumPix12MatchesPortable pins the architecture's sumPix12 against
// the portable twelve-lane kernel bit for bit, so row sums (and every
// decision downstream of them) do not depend on the build target. On
// amd64 this compares the SSE2 assembly against Go.
func TestSumPix12MatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for cols := 4; cols <= 400; cols += 4 {
		for trial := 0; trial < 5; trial++ {
			px := randomRow(rng, cols)
			gr, gg, gb := sumPix12(&px[0], cols/4)
			wr, wg, wb := sumPix12Go(&px[0], cols/4)
			if gr != wr || gg != wg || gb != wb {
				t.Fatalf("cols=%d trial=%d: sumPix12 (%v,%v,%v) vs portable (%v,%v,%v)",
					cols, trial, gr, gg, gb, wr, wg, wb)
			}
		}
	}
}

// TestSumPix12Signs exercises negative and denormal-free edge values
// through the kernel (the Lab planes can go negative after white
// subtraction elsewhere; the kernel must be sign-agnostic).
func TestSumPix12Signs(t *testing.T) {
	px := make([]colorspace.RGB, 8)
	for i := range px {
		v := float64(i - 4)
		px[i] = colorspace.RGB{R: v, G: -v, B: v * 0.5}
	}
	r, g, b := sumPix12(&px[0], 2)
	if r != -4 || g != 4 || b != -2 {
		t.Fatalf("got (%g,%g,%g), want (-4,4,-2)", r, g, b)
	}
}

// TestOrderStatExact pins the histogram-guided selection against a
// full sort: the k-th order statistic must be the sorted value
// exactly, across uniform, clustered, and constant planes.
func TestOrderStatExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []func() float64{
		func() float64 { return rng.Float64() * 100 },
		func() float64 { return 42 + rng.NormFloat64()*0.01 },
		func() float64 { return 13.5 },
		func() float64 { return math.Floor(rng.Float64()*4) * 25 },
	}
	for si, gen := range shapes {
		for _, n := range []int{1, 2, 7, 100, 3264} {
			s := getScratch(n)
			for i := range s.l {
				s.l[i] = gen()
			}
			sorted := append([]float64(nil), s.l...)
			sort.Float64s(sorted)
			ks := []int{0, n / 20, n / 2, n * 3 / 4, n - 1}
			// Every rank pair, both as the low and the high selection,
			// including equal ranks and pairs landing in one bucket.
			for _, k1 := range ks {
				for _, k2 := range ks {
					if k1 > k2 {
						continue
					}
					g1, g2 := s.orderStat2(k1, k2)
					if g1 != sorted[k1] || g2 != sorted[k2] {
						t.Fatalf("shape %d n=%d k=(%d,%d): got (%v,%v) want (%v,%v)",
							si, n, k1, k2, g1, g2, sorted[k1], sorted[k2])
					}
				}
			}
			putScratch(s)
		}
	}
}

package csk

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"colorbars/internal/cie"
	"colorbars/internal/colorspace"
)

func TestOrderBitsPerSymbol(t *testing.T) {
	cases := map[Order]int{CSK4: 2, CSK8: 3, CSK16: 4, CSK32: 5, CSK64: 6, CSK256: 8}
	for o, want := range cases {
		if got := o.BitsPerSymbol(); got != want {
			t.Errorf("%v bits = %d, want %d", o, got, want)
		}
		if !o.Valid() {
			t.Errorf("%v should be valid", o)
		}
	}
	if Order(7).Valid() || Order(7).BitsPerSymbol() != 0 {
		t.Error("order 7 should be invalid with 0 bits")
	}
}

func TestNewRejectsInvalidOrder(t *testing.T) {
	if _, err := New(Order(5), cie.SRGBTriangle); err == nil {
		t.Error("expected error")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustNew(Order(3), cie.SRGBTriangle)
}

func TestConstellationSizes(t *testing.T) {
	for _, o := range Orders {
		c := MustNew(o, cie.SRGBTriangle)
		if c.Size() != int(o) {
			t.Errorf("%v size = %d", o, c.Size())
		}
		if c.Order() != o {
			t.Errorf("Order() = %v", c.Order())
		}
		if len(c.Points()) != int(o) || len(c.ReferenceABs()) != int(o) {
			t.Errorf("%v accessor lengths wrong", o)
		}
	}
}

func TestAllPointsInsideTriangle(t *testing.T) {
	tri := cie.SRGBTriangle
	for _, o := range Orders {
		c := MustNew(o, tri)
		for i := 0; i < c.Size(); i++ {
			if !tri.Contains(c.Point(i)) {
				t.Errorf("%v symbol %d at %v outside triangle", o, i, c.Point(i))
			}
		}
	}
}

func TestPointsDistinct(t *testing.T) {
	for _, o := range Orders {
		c := MustNew(o, cie.SRGBTriangle)
		for i := 0; i < c.Size(); i++ {
			for j := i + 1; j < c.Size(); j++ {
				if c.Point(i).Dist(c.Point(j)) < 1e-3 {
					t.Errorf("%v symbols %d and %d nearly coincide", o, i, j)
				}
			}
		}
	}
}

func TestMinDistanceDecreasesWithOrder(t *testing.T) {
	var prev float64 = 1e9
	for _, o := range Orders {
		c := MustNew(o, cie.SRGBTriangle)
		d := c.MinDistance()
		if d <= 0 {
			t.Fatalf("%v min distance %v", o, d)
		}
		if d >= prev {
			t.Errorf("%v min distance %v not smaller than previous %v", o, d, prev)
		}
		prev = d
	}
}

func TestMinDistanceQuality(t *testing.T) {
	// Floors derived from the hexagonal-packing bound for the sRGB
	// triangle's area (~0.112): d* ≈ sqrt(1.155·A/n) gives ~0.09 for
	// n=16 and ~0.064 for n=32; the optimizer should land within ~25%
	// of the bound.
	// The dense orders optimize the received-plane objective, so their
	// xy floors only pin gross regressions; TestDenseReceivedQuality
	// holds the metric they are designed for.
	floors := map[Order]float64{
		CSK4: 0.25, CSK8: 0.15, CSK16: 0.075, CSK32: 0.042,
		CSK64: 0.02, CSK256: 0.009,
	}
	for o, floor := range floors {
		c := MustNew(o, cie.SRGBTriangle)
		if d := c.MinDistance(); d < floor {
			t.Errorf("%v min distance %v below floor %v", o, d, floor)
		}
	}
}

func TestDenseReceivedQuality(t *testing.T) {
	// The dense designs maximize min distance in the received {a,b}
	// plane; floors sit ~10% under the values at introduction (64-CSK
	// 17.47, 256-CSK 8.19 — 86%/80% of the hexagonal packing bound
	// for the sRGB gamut's {a,b} image). Both must clear the 2·JND
	// separability line by a wide margin, or the equalizer has nothing
	// to work with.
	floors := map[Order]float64{CSK64: 15.5, CSK256: 7.3}
	for o, floor := range floors {
		c := MustNew(o, cie.SRGBTriangle)
		if d := c.MinReceivedDistance(); d < floor {
			t.Errorf("%v received min distance %v below floor %v", o, d, floor)
		}
		if !o.Dense() {
			t.Errorf("%v should report Dense", o)
		}
	}
	for _, o := range []Order{CSK4, CSK8, CSK16, CSK32} {
		if o.Dense() {
			t.Errorf("%v should not report Dense", o)
		}
	}
}

func TestDenseDesignCached(t *testing.T) {
	// Dense designs are memoized per (order, triangle): rebuilding the
	// constellation must reuse the finished layout, not redesign it.
	a := MustNew(CSK256, cie.SRGBTriangle)
	start := time.Now()
	b := MustNew(CSK256, cie.SRGBTriangle)
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Errorf("cached rebuild took %v", d)
	}
	for i := 0; i < a.Size(); i++ {
		if a.Point(i) != b.Point(i) {
			t.Fatalf("cached design differs at %d", i)
		}
	}
}

func TestCSK4Layout(t *testing.T) {
	tri := cie.SRGBTriangle
	c := MustNew(CSK4, tri)
	want := []colorspace.XY{tri.R, tri.G, tri.B, tri.Centroid()}
	for i, w := range want {
		if c.Point(i).Dist(w) > 1e-12 {
			t.Errorf("4-CSK point %d = %v, want %v", i, c.Point(i), w)
		}
	}
}

func TestDesignDeterministic(t *testing.T) {
	a := MustNew(CSK16, cie.SRGBTriangle)
	b := MustNew(CSK16, cie.SRGBTriangle)
	for i := 0; i < a.Size(); i++ {
		if a.Point(i) != b.Point(i) {
			t.Fatalf("design not deterministic at %d", i)
		}
	}
}

func TestDrivesReproducePoints(t *testing.T) {
	for _, o := range Orders {
		c := MustNew(o, cie.SRGBTriangle)
		for i := 0; i < c.Size(); i++ {
			got := cie.Chromaticity(c.Drive(i))
			if got.Dist(c.Point(i)) > 1e-6 {
				t.Errorf("%v symbol %d drive reproduces %v, want %v", o, i, got, c.Point(i))
			}
			if c.Drive(i).Max() < 0.999 {
				t.Errorf("%v symbol %d drive not normalized: %v", o, i, c.Drive(i))
			}
		}
	}
}

func TestNearestABIdentity(t *testing.T) {
	// Each symbol's own reference color must demap to itself.
	for _, o := range Orders {
		c := MustNew(o, cie.SRGBTriangle)
		refs := c.ReferenceABs()
		for i := 0; i < c.Size(); i++ {
			if got := NearestAB(c.ReferenceAB(i), refs); got != i {
				t.Errorf("%v symbol %d demaps to %d", o, i, got)
			}
		}
	}
}

func TestReferencesDistinctInAB(t *testing.T) {
	// Symbols must stay separable after the Lab projection; otherwise
	// demodulation is impossible even without noise.
	for _, o := range Orders {
		c := MustNew(o, cie.SRGBTriangle)
		for i := 0; i < c.Size(); i++ {
			for j := i + 1; j < c.Size(); j++ {
				if c.ReferenceAB(i).Dist(c.ReferenceAB(j)) < 2*colorspace.JND {
					t.Errorf("%v refs %d/%d closer than 2*JND: %v vs %v",
						o, i, j, c.ReferenceAB(i), c.ReferenceAB(j))
				}
			}
		}
	}
}

// Modulation maps bytes to symbol indices with Order.Pack and back
// with Order.Unpack.
func TestModulateDemodulateRoundTrip(t *testing.T) {
	for _, o := range Orders {
		f := func(data []byte) bool {
			syms := o.Pack(data)
			if len(syms) != o.SymbolsPerBytes(len(data)) {
				return false
			}
			back, err := o.Unpack(syms, len(data))
			return err == nil && bytes.Equal(back, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%v: %v", o, err)
		}
	}
}

func TestModulateSymbolRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 100)
	rng.Read(data)
	for _, o := range Orders {
		for _, s := range o.Pack(data) {
			if s < 0 || s >= int(o) {
				t.Fatalf("%v: symbol %d out of range", o, s)
			}
		}
	}
}

func TestDemodulateErrors(t *testing.T) {
	if _, err := CSK8.Unpack([]int{0, 1}, 10); err == nil {
		t.Error("expected too-few-symbols error")
	}
	if _, err := CSK8.Unpack([]int{0, 9, 0}, 1); err == nil {
		t.Error("expected out-of-range symbol error")
	}
}

func TestSymbolsPerBytes(t *testing.T) {
	cases := []struct {
		o    Order
		n    int
		want int
	}{
		{CSK4, 1, 4},  // 8 bits / 2
		{CSK8, 3, 8},  // 24 bits / 3
		{CSK8, 1, 3},  // ceil(8/3)
		{CSK16, 2, 4}, // 16/4
		{CSK32, 5, 8}, // 40/5
		{CSK32, 1, 2}, // ceil(8/5)
		{CSK4, 0, 0},  // empty
	}
	for _, tc := range cases {
		if got := tc.o.SymbolsPerBytes(tc.n); got != tc.want {
			t.Errorf("%v.SymbolsPerBytes(%d) = %d, want %d", tc.o, tc.n, got, tc.want)
		}
	}
}

func TestWhitePerceptionOfConstellation(t *testing.T) {
	// Paper §4: symbols spread through the triangle transmitted in
	// equal proportion must average (in linear light) to a chromaticity
	// near white — the property flicker-free operation relies on.
	for _, o := range Orders {
		c := MustNew(o, cie.SRGBTriangle)
		var sum colorspace.XYZ
		for i := 0; i < c.Size(); i++ {
			sum = sum.Add(colorspace.LinearRGBToXYZ(c.Drive(i)))
		}
		avg := sum.Chromaticity()
		if d := avg.Dist(colorspace.D65xy); d > 0.08 {
			t.Errorf("%v equal-mix chromaticity %v is %v from D65", o, avg, d)
		}
	}
}

func BenchmarkNew16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = MustNew(CSK16, cie.SRGBTriangle)
	}
}

func BenchmarkPack(b *testing.B) {
	data := make([]byte, 1024)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = CSK8.Pack(data)
	}
}

func BenchmarkNearestAB(b *testing.B) {
	c := MustNew(CSK32, cie.SRGBTriangle)
	refs := c.ReferenceABs()
	obs := c.ReferenceAB(17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NearestAB(obs, refs)
	}
}

// Package csk implements Color Shift Keying modulation: the mapping
// between bit streams and color symbols drawn from a constellation of
// chromaticities inside the tri-LED's CIE 1931 constellation triangle
// (paper §2.2, Figs. 1(d)–1(f)).
//
// Constellations of order 4, 8, 16, 32, 64 and 256 are supported.
// The 4-CSK design is the classic vertices-plus-centroid layout from
// IEEE 802.15.7. Orders 8–32 are produced by a deterministic max-min
// distance optimizer that implements the standard's stated design
// rule — "constellation symbols are chosen inside the triangle such
// that inter-symbol distance is maximized" — via repulsion dynamics
// from a triangular-lattice seed. The resulting layouts match the
// qualitative structure of the standard's 8/16-CSK figures (vertices
// occupied, symbols spread evenly through the triangle). The dense
// orders (64, 256) are designed directly in the received {a,b} plane
// (see received.go) and are only decodable with the online channel
// equalizer engaged.
package csk

import (
	"fmt"
	"math"
	"sync"

	"colorbars/internal/cie"
	"colorbars/internal/colorspace"
)

// Order is a supported CSK constellation size.
type Order int

// Supported constellation orders.
const (
	CSK4   Order = 4
	CSK8   Order = 8
	CSK16  Order = 16
	CSK32  Order = 32
	CSK64  Order = 64
	CSK256 Order = 256
)

// Orders lists all supported orders in ascending order.
var Orders = []Order{CSK4, CSK8, CSK16, CSK32, CSK64, CSK256}

// Valid reports whether o is a supported order.
func (o Order) Valid() bool {
	switch o {
	case CSK4, CSK8, CSK16, CSK32, CSK64, CSK256:
		return true
	}
	return false
}

// Dense reports whether o is a dense constellation (beyond the
// paper's 16-CSK ceiling and the 32-CSK stretch point): the orders
// that are only decodable with the online channel equalizer engaged.
// Dense layouts are designed directly in the received {a,b} plane —
// at these densities the xy→{a,b} nonlinearity costs more margin than
// any xy-plane layout can recover.
func (o Order) Dense() bool { return o > CSK32 }

// BitsPerSymbol returns log2(order): the number of data bits each
// color symbol carries (the paper's C).
func (o Order) BitsPerSymbol() int {
	switch o {
	case CSK4:
		return 2
	case CSK8:
		return 3
	case CSK16:
		return 4
	case CSK32:
		return 5
	case CSK64:
		return 6
	case CSK256:
		return 8
	}
	return 0
}

func (o Order) String() string { return fmt.Sprintf("%d-CSK", int(o)) }

// Constellation is a concrete CSK constellation bound to a
// constellation triangle: an ordered list of chromaticity points and
// the LED drive levels that produce them.
type Constellation struct {
	order    Order
	triangle cie.Triangle
	points   []colorspace.XY
	drives   []colorspace.RGB
	refAB    []colorspace.AB // ideal received {a,b} per symbol
}

// New builds the constellation of the given order inside the triangle.
func New(order Order, tri cie.Triangle) (*Constellation, error) {
	if !order.Valid() {
		return nil, fmt.Errorf("csk: unsupported order %d", int(order))
	}
	pts := designPoints(int(order), tri)
	c := &Constellation{
		order:    order,
		triangle: tri,
		points:   pts,
		drives:   make([]colorspace.RGB, len(pts)),
		refAB:    make([]colorspace.AB, len(pts)),
	}
	for i, p := range pts {
		d, err := tri.DriveLevels(p)
		if err != nil {
			return nil, fmt.Errorf("csk: symbol %d: %w", i, err)
		}
		c.drives[i] = d
		c.refAB[i] = colorspace.LinearRGBToLab(d).AB()
	}
	return c, nil
}

// MustNew is New, panicking on error. For tests and fixed
// configurations known to be valid.
func MustNew(order Order, tri cie.Triangle) *Constellation {
	c, err := New(order, tri)
	if err != nil {
		panic(err)
	}
	return c
}

// Order returns the constellation order.
func (c *Constellation) Order() Order { return c.order }

// BitsPerSymbol returns the bits carried per symbol.
func (c *Constellation) BitsPerSymbol() int { return c.order.BitsPerSymbol() }

// Size returns the number of symbols.
func (c *Constellation) Size() int { return len(c.points) }

// Point returns the chromaticity of symbol i.
func (c *Constellation) Point(i int) colorspace.XY { return c.points[i] }

// Points returns a copy of all symbol chromaticities.
func (c *Constellation) Points() []colorspace.XY {
	return append([]colorspace.XY(nil), c.points...)
}

// Drive returns the linear RGB drive levels (PWM duties) of symbol i.
func (c *Constellation) Drive(i int) colorspace.RGB { return c.drives[i] }

// ReferenceAB returns the ideal received {a,b} color of symbol i, used
// as the factory (uncalibrated) reference.
func (c *Constellation) ReferenceAB(i int) colorspace.AB { return c.refAB[i] }

// ReferenceABs returns a copy of all ideal {a,b} references.
func (c *Constellation) ReferenceABs() []colorspace.AB {
	return append([]colorspace.AB(nil), c.refAB...)
}

// CalibrationOrder returns a deterministic permutation of the symbol
// indices in which consecutive entries are far apart in the received
// {a,b} plane (greedy farthest-from-previous). Calibration packets
// transmit their body in this order so that adjacent body colors never
// merge into one band under inter-symbol interference; both ends
// compute the same permutation from the factory constellation.
func (c *Constellation) CalibrationOrder() []int {
	m := c.Size()
	order := make([]int, 0, m)
	used := make([]bool, m)
	order = append(order, 0)
	used[0] = true
	for len(order) < m {
		prev := c.refAB[order[len(order)-1]]
		best, bestD := -1, -1.0
		for i := 0; i < m; i++ {
			if used[i] {
				continue
			}
			if d := prev.Dist(c.refAB[i]); d > bestD {
				best, bestD = i, d
			}
		}
		order = append(order, best)
		used[best] = true
	}
	return order
}

// MinDistance returns the minimum pairwise chromaticity distance of
// the design, the quantity the layout maximizes.
func (c *Constellation) MinDistance() float64 {
	return cie.MinPairDistance(c.points)
}

// NearestAB returns the index of the reference color closest to the
// observed {a,b} value, matching against the provided references
// (calibrated or factory). This is the paper's ΔE color-matching step
// restricted to the a,b-plane. The comparison runs on squared
// distances (argmin-identical, one Hypot cheaper per reference); ties
// keep resolving to the first reference in order.
func NearestAB(observed colorspace.AB, refs []colorspace.AB) int {
	best, bestD := 0, math.Inf(1)
	for i, r := range refs {
		if d := observed.DistSq(r); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// --- bit <-> symbol mapping ---

// SymbolsPerBytes returns how many symbols are needed to carry n bytes
// at this order (the final symbol is zero-padded).
func (o Order) SymbolsPerBytes(n int) int {
	bits := 8 * n
	c := o.BitsPerSymbol()
	return (bits + c - 1) / c
}

// Pack packs a byte stream into a sequence of symbol indices,
// MSB-first, zero-padding the tail to fill the last symbol.
func (o Order) Pack(data []byte) []int {
	bps := o.BitsPerSymbol()
	out := make([]int, 0, o.SymbolsPerBytes(len(data)))
	var acc, nbits int
	for _, b := range data {
		acc = acc<<8 | int(b)
		nbits += 8
		for nbits >= bps {
			nbits -= bps
			out = append(out, (acc>>nbits)&(int(o)-1))
		}
	}
	if nbits > 0 {
		// Pad the final partial symbol with zero bits.
		acc <<= bps - nbits
		out = append(out, acc&(int(o)-1))
	}
	return out
}

// Unpack unpacks symbol indices back into bytes, dropping any
// trailing padding bits beyond byteLen bytes. byteLen must not exceed
// the symbol capacity.
func (o Order) Unpack(symbols []int, byteLen int) ([]byte, error) {
	return o.AppendUnpack(make([]byte, 0, byteLen), symbols, byteLen)
}

// AppendUnpack is Unpack appending into a caller-owned buffer (reset
// it with dst[:0] to reuse), the allocation-free form the receiver's
// decode path uses. Exactly byteLen bytes are appended on success.
func (o Order) AppendUnpack(dst []byte, symbols []int, byteLen int) ([]byte, error) {
	bps := o.BitsPerSymbol()
	if need := o.SymbolsPerBytes(byteLen); len(symbols) < need {
		return nil, fmt.Errorf("csk: %d symbols carry at most %d bytes, need %d",
			len(symbols), len(symbols)*bps/8, byteLen)
	}
	start := len(dst)
	var acc, nbits int
	for _, s := range symbols {
		if s < 0 || s >= int(o) {
			return nil, fmt.Errorf("csk: symbol index %d out of range for %v", s, o)
		}
		acc = acc<<bps | s
		nbits += bps
		for nbits >= 8 {
			nbits -= 8
			dst = append(dst, byte(acc>>nbits))
			if len(dst)-start == byteLen {
				return dst, nil
			}
		}
	}
	if len(dst)-start < byteLen {
		return nil, fmt.Errorf("csk: ran out of symbols at byte %d of %d", len(dst)-start, byteLen)
	}
	return dst, nil
}

// --- constellation design ---

// designCache memoizes finished point layouts per (size, triangle,
// design plane). The dense optimizers cost whole seconds at 256
// points, and every NewReceiver/NewTransmitter/test rebuilds its
// constellation from scratch; the cached slice is immutable after
// design (Constellation never mutates points, Points() copies).
var designCache sync.Map // designKey -> []colorspace.XY

type designKey struct {
	m     int
	tri   cie.Triangle
	rxOpt bool
}

func cachedDesign(m int, tri cie.Triangle, rxOpt bool, build func() []colorspace.XY) []colorspace.XY {
	key := designKey{m: m, tri: tri, rxOpt: rxOpt}
	if v, ok := designCache.Load(key); ok {
		return v.([]colorspace.XY)
	}
	pts := build()
	v, _ := designCache.LoadOrStore(key, pts)
	return v.([]colorspace.XY)
}

// designPoints returns m well-spread chromaticity points inside tri.
func designPoints(m int, tri cie.Triangle) []colorspace.XY {
	if m == 4 {
		// IEEE 802.15.7 4-CSK: the three vertices plus the centroid.
		return []colorspace.XY{tri.R, tri.G, tri.B, tri.Centroid()}
	}
	if Order(m).Dense() {
		// Dense constellations are designed in the received {a,b}
		// plane (see denseDesignPoints); there is no separate xy
		// design at these densities.
		return cachedDesign(m, tri, false, func() []colorspace.XY {
			return denseDesignPoints(m, tri)
		})
	}
	return cachedDesign(m, tri, false, func() []colorspace.XY {
		pts := latticeSeed(m, tri)
		// Annealed repulsion: a few cycles with decreasing starting
		// step escape poor local layouts from the truncated lattice
		// seed.
		for _, step := range []float64{0.02, 0.01, 0.004} {
			relax(pts, tri, 600, step)
		}
		maxMinAscent(pts, tri, 200)
		return pts
	})
}

// latticeSeed produces m deterministic starting points: the vertices
// first, then triangular-lattice points of increasing density.
func latticeSeed(m int, tri cie.Triangle) []colorspace.XY {
	// Find the smallest lattice side whose point count covers m.
	side := 1
	for (side+1)*(side+2)/2 < m {
		side++
	}
	var bary [][3]float64
	for i := 0; i <= side; i++ {
		for j := 0; j <= side-i; j++ {
			k := side - i - j
			bary = append(bary, [3]float64{float64(i) / float64(side), float64(j) / float64(side), float64(k) / float64(side)})
		}
	}
	// Prefer vertices, then points far from already-chosen ones
	// (greedy farthest-point ordering) so truncation keeps spread.
	pts := make([]colorspace.XY, 0, len(bary))
	for _, b := range bary {
		pts = append(pts, tri.Point(b[0], b[1], b[2]))
	}
	chosen := make([]colorspace.XY, 0, m)
	used := make([]bool, len(pts))
	// Seed with the vertex closest to R.
	chosen = append(chosen, tri.R)
	for i, p := range pts {
		if p.Dist(tri.R) < 1e-12 {
			used[i] = true
		}
	}
	for len(chosen) < m {
		bestI, bestD := -1, -1.0
		for i, p := range pts {
			if used[i] {
				continue
			}
			d := math.Inf(1)
			for _, q := range chosen {
				if dd := p.Dist(q); dd < d {
					d = dd
				}
			}
			if d > bestD {
				bestD, bestI = d, i
			}
		}
		used[bestI] = true
		chosen = append(chosen, pts[bestI])
	}
	return chosen
}

// relax runs deterministic repulsion dynamics: each point is pushed
// away from its neighbours (inverse-cube force) and projected back
// into the triangle, with a decaying step size. This improves spread
// toward a max-min-style layout.
func relax(pts []colorspace.XY, tri cie.Triangle, iters int, step float64) {
	n := len(pts)
	for it := 0; it < iters; it++ {
		forces := make([]colorspace.XY, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				dx := pts[i].X - pts[j].X
				dy := pts[i].Y - pts[j].Y
				d2 := dx*dx + dy*dy
				if d2 < 1e-12 {
					d2 = 1e-12
					dx = 1e-6 * float64(i-j)
				}
				inv := 1 / (d2 * math.Sqrt(d2))
				forces[i].X += dx * inv
				forces[i].Y += dy * inv
			}
		}
		// Normalize forces so the step size controls displacement.
		var maxF float64
		for _, f := range forces {
			if m := math.Hypot(f.X, f.Y); m > maxF {
				maxF = m
			}
		}
		if maxF == 0 {
			return
		}
		s := step / maxF
		for i := range pts {
			cand := colorspace.XY{X: pts[i].X + forces[i].X*s, Y: pts[i].Y + forces[i].Y*s}
			pts[i] = projectIntoTriangle(cand, tri)
		}
		step *= 0.995
	}
}

// maxMinAscent directly improves the max-min objective: on each pass
// it finds the closest pair and tries small deterministic moves of
// each endpoint, keeping any move that increases the global minimum
// pairwise distance.
func maxMinAscent(pts []colorspace.XY, tri cie.Triangle, passes int) {
	dirs := []colorspace.XY{
		{X: 1, Y: 0}, {X: -1, Y: 0}, {X: 0, Y: 1}, {X: 0, Y: -1},
		{X: 0.7, Y: 0.7}, {X: -0.7, Y: 0.7}, {X: 0.7, Y: -0.7}, {X: -0.7, Y: -0.7},
	}
	for p := 0; p < passes; p++ {
		cur := cie.MinPairDistance(pts)
		// Identify one endpoint of the closest pair.
		ai, bi := closestPair(pts)
		improved := false
		for _, idx := range []int{ai, bi} {
			orig := pts[idx]
			for _, d := range dirs {
				for _, s := range []float64{0.01, 0.004, 0.001} {
					cand := colorspace.XY{X: orig.X + d.X*s, Y: orig.Y + d.Y*s}
					cand = projectIntoTriangle(cand, tri)
					pts[idx] = cand
					if cie.MinPairDistance(pts) > cur {
						cur = cie.MinPairDistance(pts)
						orig = cand
						improved = true
					} else {
						pts[idx] = orig
					}
				}
			}
			pts[idx] = orig
		}
		if !improved {
			return
		}
	}
}

func closestPair(pts []colorspace.XY) (int, int) {
	ai, bi, best := 0, 1, math.Inf(1)
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if d := pts[i].Dist(pts[j]); d < best {
				ai, bi, best = i, j, d
			}
		}
	}
	return ai, bi
}

// projectIntoTriangle clamps a point to the triangle by clamping its
// barycentric coordinates and renormalizing.
func projectIntoTriangle(p colorspace.XY, tri cie.Triangle) colorspace.XY {
	wr, wg, wb := tri.Barycentric(p)
	if wr >= 0 && wg >= 0 && wb >= 0 {
		return p
	}
	wr = math.Max(wr, 0)
	wg = math.Max(wg, 0)
	wb = math.Max(wb, 0)
	return tri.Point(wr, wg, wb)
}

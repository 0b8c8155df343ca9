package modem

import (
	"math"
	"sort"
	"sync"

	"colorbars/internal/camera"
	"colorbars/internal/colorspace"
	"colorbars/internal/packet"
)

// This file is the scalar reference front end (paper §7, Steps 1–2),
// the test oracle the columnar front end in columnar.go is checked
// against: reduce each frame to a 1-D strip of exact CIELab row
// colors (camera.Frame.RowMean + colorspace.LinearRGBToLab), segment
// it with plain CIE76 distances, and plan the bands from a fully
// sorted lightness copy. It shares the production classifier and
// grid fit, and reaches the receiver's sequential back half only
// through the public split: rx.ProcessAnalysis(rx.analyzeReference(f)).

// stripRow is one scanline reduced to its mean CIELab color.
type stripRow struct {
	lab colorspace.Lab
}

// stripPool recycles strip buffers across frames, so the reference
// path exercises the same concurrent-use pattern as the pooled
// columnar scratch.
var stripPool = sync.Pool{New: func() any { return new([]stripRow) }}

func getStrip(n int) *[]stripRow {
	p := stripPool.Get().(*[]stripRow)
	if cap(*p) < n {
		*p = make([]stripRow, n)
	} else {
		*p = (*p)[:n]
	}
	return p
}

func putStrip(p *[]stripRow) { stripPool.Put(p) }

// floatPool recycles the per-frame float scratch used by segmentation
// (windowed differences) and the OFF-threshold fit (sorted lightness).
var floatPool = sync.Pool{New: func() any { return new([]float64) }}

func getFloats(n int) *[]float64 {
	p := floatPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	} else {
		*p = (*p)[:n]
	}
	return p
}

func putFloats(p *[]float64) { floatPool.Put(p) }

// analyzeReference runs the reference front end on one frame. Its
// result feeds Receiver.ProcessAnalysis exactly like Analyze's.
func (r *Receiver) analyzeReference(f *camera.Frame) *Analysis {
	rowsPerSym := 1 / (r.cfg.SymbolRate * f.RowTime)
	strip := getStrip(f.Rows)
	defer putStrip(strip)
	extractStripInto(*strip, f)
	bands := segmentBands(*strip, rowsPerSym, f.Exposure/f.RowTime)
	return planBands(*strip, bands, rowsPerSym)
}

// extractStripInto fills dst (len f.Rows) with the frame's 1-D CIELab
// strip: each row's pixels are averaged (the paper's dimension
// reduction) and the mean is converted to Lab exactly.
func extractStripInto(dst []stripRow, f *camera.Frame) {
	for r := 0; r < f.Rows; r++ {
		mean := f.RowMean(r)
		dst[r] = stripRow{lab: colorspace.LinearRGBToLab(mean)}
	}
}

// segmentBands splits the strip at color discontinuities. rowsPerSym
// is the expected band width (symbol period / row time); smearRows is
// the width of the exposure smear (exposure time / row time), which
// spreads each transition over several rows. Band colors are taken
// from rows clear of the smeared edges.
func segmentBands(strip []stripRow, rowsPerSym, smearRows float64) []band {
	if len(strip) == 0 {
		return nil
	}
	// Windowed color difference: compare rows half a smear apart so a
	// transition's full amplitude shows up even when the per-row
	// change is small. h ≥ 1.
	h := int(smearRows/2 + 1)
	diffBuf := getFloats(len(strip))
	defer putFloats(diffBuf)
	diff := *diffBuf
	for i := range strip {
		lo, hi := i-h, i+h
		if lo < 0 || hi >= len(strip) {
			diff[i] = 0
			continue
		}
		diff[i] = colorspace.DeltaE(strip[lo].lab, strip[hi].lab)
	}
	minSpacing := int(rowsPerSym / 2)
	if minSpacing < 1 {
		minSpacing = 1
	}
	// Boundaries are local maxima of the windowed difference above the
	// threshold, greedily separated by minSpacing.
	var cuts []int
	lastCut := -minSpacing
	for i := 1; i+1 < len(diff); i++ {
		if diff[i] >= boundaryTheta && diff[i] >= diff[i-1] && diff[i] > diff[i+1] {
			if i-lastCut >= minSpacing {
				cuts = append(cuts, i)
				lastCut = i
			}
		}
	}
	bounds := append([]int{0}, cuts...)
	bounds = append(bounds, len(strip))
	bands := make([]band, 0, len(bounds)-1)
	for i := 0; i+1 < len(bounds); i++ {
		b := band{start: bounds[i], end: bounds[i+1]}
		b.lab = bandColor(strip, b, smearRows)
		bands = append(bands, b)
	}
	return mergeSimilarBands(bands)
}

// mergeSimilarBands coalesces adjacent bands whose mean colors sit
// closer than the boundary threshold: such cuts were spurious (noise
// can exceed the per-row threshold inside dark bands, where the Lab
// transform amplifies chroma jitter). Runs of identical transmitted
// symbols deliberately re-merge here and are split again by band width
// in planBands.
func mergeSimilarBands(bands []band) []band {
	if len(bands) < 2 {
		return bands
	}
	out := bands[:1]
	for _, b := range bands[1:] {
		prev := &out[len(out)-1]
		if colorspace.DeltaE(prev.lab, b.lab) < boundaryTheta {
			// Width-weighted color merge.
			wp, wb := float64(prev.width()), float64(b.width())
			total := wp + wb
			prev.lab = colorspace.Lab{
				L: (prev.lab.L*wp + b.lab.L*wb) / total,
				A: (prev.lab.A*wp + b.lab.A*wb) / total,
				B: (prev.lab.B*wp + b.lab.B*wb) / total,
			}
			prev.end = b.end
			continue
		}
		out = append(out, b)
	}
	return out
}

// bandColor averages the band's central rows, keeping clear of the
// exposure smear at each edge (at least one row is always kept).
func bandColor(strip []stripRow, b band, smearRows float64) colorspace.Lab {
	w := b.width()
	trim := int(math.Max(float64(w)*0.3, smearRows*0.75))
	lo, hi := b.start+trim, b.end-trim
	if lo >= hi {
		mid := (b.start + b.end) / 2
		lo, hi = mid, mid+1
	}
	var sum colorspace.Lab
	for r := lo; r < hi; r++ {
		sum.L += strip[r].lab.L
		sum.A += strip[r].lab.A
		sum.B += strip[r].lab.B
	}
	n := float64(hi - lo)
	return colorspace.Lab{L: sum.L / n, A: sum.A / n, B: sum.B / n}
}

// offLevelFor computes the frame-adapted OFF lightness threshold from
// the strip by a full sort: the threshold sits a fraction of the
// dark-to-lit spread above the 5th percentile of row lightness (see
// frameScratch.offLevel for why). The strip must be non-empty.
func offLevelFor(strip []stripRow) float64 {
	lsBuf := getFloats(len(strip))
	defer putFloats(lsBuf)
	ls := *lsBuf
	for i, r := range strip {
		ls[i] = r.lab.L
	}
	sort.Float64s(ls)
	p5 := ls[len(ls)/20]
	p75 := ls[len(ls)*3/4]
	spread := p75 - p5
	return math.Max(8, p5+math.Max(5, 0.25*spread))
}

// planBands snaps band boundaries to the fitted symbol grid and
// records, per band, the color and symbol count, plus the
// frame-adapted OFF threshold — the reference counterpart of
// frameScratch.planInto, allocating a fresh Analysis.
func planBands(strip []stripRow, bands []band, rowsPerSym float64) *Analysis {
	a := &Analysis{}
	if len(strip) > 0 {
		a.offLevel = offLevelFor(strip)
		a.hasOffLevel = true
	}
	if len(bands) == 0 {
		return a
	}
	var cuts []float64
	for _, b := range bands[1:] {
		cuts = append(cuts, float64(b.start))
	}
	phase := fitGridPhase(cuts, rowsPerSym)
	snap := func(x float64) int {
		return int(math.Round((x - phase) / rowsPerSym))
	}
	a.bands = make([]plannedBand, 0, len(bands))
	for i, b := range bands {
		count := snap(float64(b.end)) - snap(float64(b.start))
		if count < 1 {
			if i == 0 || i == len(bands)-1 {
				continue
			}
			count = 1
		}
		a.bands = append(a.bands, plannedBand{lab: b.lab, count: count})
	}
	return a
}

// emitSymbols classifies a planned frame into a fresh symbol slice.
func (c *classifier) emitSymbols(a *Analysis) []packet.RxSymbol {
	return c.emitSymbolsInto(nil, a)
}

// classifyBands adapts the OFF threshold to the frame, snaps band
// boundaries to the fitted symbol grid, and classifies each band into
// a run of received symbols.
func classifyBands(strip []stripRow, bands []band, rowsPerSym float64, cls *classifier) []packet.RxSymbol {
	return cls.emitSymbols(planBands(strip, bands, rowsPerSym))
}

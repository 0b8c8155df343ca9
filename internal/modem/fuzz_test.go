package modem

import (
	"testing"

	"colorbars/internal/camera"
	"colorbars/internal/colorspace"
)

// FuzzStripSegment drives both front ends' back halves — band
// segmentation, grid fitting, classification planning — with
// arbitrary strips and grid geometries: the reference path
// (reference_test.go) and the production columnar path on the same
// Lab rows. None of it may panic: real frames always produce
// non-degenerate strips, but the pipeline exposes Analyze to callers
// and the fuzzer owns the degenerate corners (this target caught
// classifyBands slicing bands[1:] on an empty band list, now guarded
// in planBands and planInto).
func FuzzStripSegment(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{16, 8})
	f.Add([]byte{16, 8, 200, 10, 10, 200, 12, 12, 30, 1, 1, 200, 120, 120})
	// One-row strip: a single band with no interior boundaries.
	f.Add([]byte{16, 8, 200, 10, 10})
	// All-off frame: every row below any plausible OFF threshold, so
	// segmentation sees a flat dark strip and classification must emit
	// only OFF symbols without dividing by a zero spread.
	f.Add([]byte{16, 8, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0})
	// Width-1 bands: rowsPerSym below one row with a hard color flip on
	// every row, so each band is a single row and the grid fitter sees
	// count≈1 everywhere.
	f.Add([]byte{0, 0, 200, 60, 10, 200, 196, 246, 200, 60, 10, 200, 196, 246, 200, 60, 10, 200, 196, 246})
	f.Fuzz(func(t *testing.T, data []byte) {
		var rowsPerSym, expRows float64 = 1, 0
		if len(data) >= 2 {
			rowsPerSym = 0.5 + float64(data[0])/8 // [0.5, ~32.4]
			expRows = float64(data[1]) / 16
			data = data[2:]
		}
		var strip []stripRow
		for i := 0; i+2 < len(data); i += 3 {
			strip = append(strip, stripRow{lab: colorspace.Lab{
				L: float64(data[i]) / 255 * 100,
				A: float64(int8(data[i+1])),
				B: float64(int8(data[i+2])),
			}})
		}
		bands := segmentBands(strip, rowsPerSym, expRows)
		cls := newClassifier()
		syms := classifyBands(strip, bands, rowsPerSym, cls)

		// Cross-check the parallel-path split against the direct call:
		// planBands + emitSymbols is what the pipeline runs.
		cls2 := newClassifier()
		syms2 := cls2.emitSymbols(planBands(strip, bands, rowsPerSym))
		if len(syms) != len(syms2) {
			t.Fatalf("split path emitted %d symbols, direct path %d", len(syms2), len(syms))
		}
		for i := range syms {
			if syms[i] != syms2[i] {
				t.Fatalf("symbol %d differs: %v vs %v", i, syms[i], syms2[i])
			}
		}

		s := getScratch(len(strip))
		defer putScratch(s)
		for i, r := range strip {
			s.l[i], s.a[i], s.bb[i] = r.lab.L, r.lab.A, r.lab.B
		}
		a := getAnalysis()
		defer recycleAnalysis(a)
		s.planInto(a, s.segment(rowsPerSym, expRows), rowsPerSym)
		newClassifier().emitSymbolsInto(nil, a)
	})
}

// FuzzFrontEndDifferential pins the columnar front end's strip
// extraction (rowSum — the packed kernel over the multiple-of-4
// prefix plus an in-order tail — and the LUT conversion) against the
// scalar reference (RowMean + exact LinearRGBToLab) on arbitrary
// frames. For any pixel content in [0,1]³ and any geometry — widths
// below 4 that are all tail, multiples of 4 that are all kernel, and
// everything in between — the per-row Lab values must agree within
// the documented LUT ceiling. This is the property-level sibling of
// the golden-frame harness: the harness proves symbol/block equality
// on realistic captures, this target hands the adversarial geometries
// to the fuzzer.
func FuzzFrontEndDifferential(f *testing.F) {
	// The frame width is 1 + cols8%32.
	f.Add(uint8(24), []byte{})
	// 2×4 frame: kernel only.
	f.Add(uint8(3), []byte{
		200, 10, 10, 200, 10, 10, 200, 10, 10, 200, 10, 10,
		10, 200, 10, 10, 200, 10, 10, 200, 10, 10, 200, 10,
	})
	// Width 1 is all tail; width 7 is one kernel group plus a 3-pixel
	// tail.
	f.Add(uint8(0), []byte{255, 0, 128, 0, 255, 3})
	f.Add(uint8(6), []byte{90, 90, 90, 0, 0, 0, 255, 255, 255, 1, 2, 3, 40, 50, 60, 200, 10, 10, 5, 5, 5, 9, 9, 9, 77, 77, 77})
	// Kernel prefix plus a 1- or 3-pixel tail, three rows each.
	for _, cols := range []int{5, 9, 27} {
		data := make([]byte, 3*3*cols)
		for i := range data {
			data[i] = byte(i * 37)
		}
		f.Add(uint8(cols-1), data)
	}
	f.Fuzz(func(t *testing.T, cols8 uint8, data []byte) {
		cols := 1 + int(cols8)%32
		rows := len(data) / (3 * cols)
		if rows == 0 {
			return
		}
		if rows > 256 {
			rows = 256
		}
		pix := make([]colorspace.RGB, rows*cols)
		for i := range pix {
			pix[i] = colorspace.RGB{
				R: float64(data[i*3]) / 255,
				G: float64(data[i*3+1]) / 255,
				B: float64(data[i*3+2]) / 255,
			}
		}
		fr := &camera.Frame{Rows: rows, Cols: cols, Pix: pix, Exposure: 1e-4, RowTime: 1e-5}

		s := getScratch(rows)
		s.extractPlanes(fr)
		strip := getStrip(rows)
		extractStripInto(*strip, fr)
		for r := 0; r < rows; r++ {
			exact := (*strip)[r].lab
			fast := colorspace.Lab{L: s.l[r], A: s.a[r], B: s.bb[r]}
			if d := colorspace.DeltaE2000(exact, fast); !(d <= colorspace.LUTMaxDeltaE2000) {
				t.Fatalf("row %d (%dx%d): fast %+v vs exact %+v diverge by ΔE %g",
					r, rows, cols, fast, exact, d)
			}
		}
		putStrip(strip)
		putScratch(s)
	})
}

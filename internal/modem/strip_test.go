package modem

import (
	"math"
	"testing"

	"colorbars/internal/camera"
	"colorbars/internal/colorspace"
	"colorbars/internal/led"
	"colorbars/internal/packet"
	"colorbars/internal/telemetry"
)

// syntheticPlanes returns a frame scratch whose Lab planes hold
// len(colors) segments, each segWidth rows of the given linear RGB
// color. The caller returns it with putScratch.
func syntheticPlanes(colors []colorspace.RGB, segWidth int) *frameScratch {
	s := getScratch(len(colors) * segWidth)
	for i, c := range colors {
		lab := colorspace.LinearRGBToLab(c)
		for r := i * segWidth; r < (i+1)*segWidth; r++ {
			s.l[r], s.a[r], s.bb[r] = lab.L, lab.A, lab.B
		}
	}
	return s
}

// columnarSymbols runs the production front end on one frame
// (analyzeFast, then emitSymbolsInto against cls) for a link at the
// given symbol rate.
func columnarSymbols(f *camera.Frame, rate float64, cls *classifier) []packet.RxSymbol {
	r := &Receiver{cfg: RxConfig{SymbolRate: rate}}
	a := r.analyzeFast(telemetry.Span{}, f)
	defer recycleAnalysis(a)
	return cls.emitSymbolsInto(nil, a)
}

func TestSegmentBandsCleanEdges(t *testing.T) {
	colors := []colorspace.RGB{
		{R: 0.5}, {G: 0.5}, {B: 0.5}, {R: 0.5, G: 0.5, B: 0.5},
	}
	s := syntheticPlanes(colors, 40)
	defer putScratch(s)
	bands := s.segment(40, 2)
	if len(bands) != 4 {
		t.Fatalf("got %d bands, want 4", len(bands))
	}
	for i, b := range bands {
		if b.width() < 35 || b.width() > 45 {
			t.Errorf("band %d width %d", i, b.width())
		}
		want := colorspace.LinearRGBToLab(colors[i])
		if colorspace.DeltaE(b.lab, want) > 1 {
			t.Errorf("band %d color %v, want %v", i, b.lab, want)
		}
	}
}

func TestSegmentBandsMergesIdenticalNeighbors(t *testing.T) {
	// Two adjacent identical segments must come back as ONE band
	// (split again later by width).
	colors := []colorspace.RGB{{R: 0.5}, {R: 0.5}, {G: 0.5}}
	s := syntheticPlanes(colors, 40)
	defer putScratch(s)
	bands := s.segment(40, 2)
	if len(bands) != 2 {
		t.Fatalf("got %d bands, want 2", len(bands))
	}
	if w := bands[0].width(); w < 79 || w > 81 {
		t.Errorf("merged band width %d, want ~80", bands[0].width())
	}
}

func TestSegmentBandsEmpty(t *testing.T) {
	s := getScratch(0)
	defer putScratch(s)
	if got := s.segment(10, 2); len(got) != 0 {
		t.Errorf("empty strip produced %v", got)
	}
}

func TestMergeSimilarBandsWeighting(t *testing.T) {
	a := band{start: 0, end: 30, lab: colorspace.Lab{L: 10}}
	b := band{start: 30, end: 40, lab: colorspace.Lab{L: 14}}
	merged := mergeSimilarBandsSq([]band{a, b})
	if len(merged) != 1 {
		t.Fatalf("got %d bands", len(merged))
	}
	// Width-weighted: (10*30 + 14*10) / 40 = 11.
	if math.Abs(merged[0].lab.L-11) > 1e-9 {
		t.Errorf("merged L = %v, want 11", merged[0].lab.L)
	}
	if merged[0].start != 0 || merged[0].end != 40 {
		t.Errorf("merged extent [%d,%d)", merged[0].start, merged[0].end)
	}
}

func TestMergeSimilarBandsKeepsDistinct(t *testing.T) {
	a := band{start: 0, end: 30, lab: colorspace.Lab{L: 10}}
	b := band{start: 30, end: 60, lab: colorspace.Lab{L: 80}}
	if got := mergeSimilarBandsSq([]band{a, b}); len(got) != 2 {
		t.Fatalf("distinct bands merged: %d", len(got))
	}
}

func TestClassifierOffByLightness(t *testing.T) {
	cls := newClassifier()
	if got := cls.classify(colorspace.Lab{L: 2}); got.Kind != packet.KindOff {
		t.Errorf("dark band classified %v", got.Kind)
	}
	if got := cls.classify(colorspace.Lab{L: 90}); got.Kind == packet.KindOff {
		t.Error("bright band classified off")
	}
}

func TestClassifierWhiteVsDataByNearest(t *testing.T) {
	cls := newClassifier()
	// A slightly tinted color: with a data ref nearby it must be data,
	// without refs it falls inside the white margin.
	tinted := colorspace.Lab{L: 80, A: 5, B: 3}
	if got := cls.classify(tinted); got.Kind != packet.KindWhite {
		t.Errorf("without refs: %v, want white", got.Kind)
	}
	cls.setDataRefs([]colorspace.AB{{A: 6, B: 4}})
	if got := cls.classify(tinted); got.Kind != packet.KindData {
		t.Errorf("with near ref: %v, want data", got.Kind)
	}
	// Pure white stays white even with refs.
	if got := cls.classify(colorspace.Lab{L: 95, A: 0, B: 0}); got.Kind != packet.KindWhite {
		t.Errorf("white with refs: %v", got.Kind)
	}
}

func TestAdaptOffLevelScalesWithBrightness(t *testing.T) {
	bright := syntheticPlanes([]colorspace.RGB{{R: 1, G: 1, B: 1}}, 100)
	high := bright.offLevel()
	putScratch(bright)
	dim := syntheticPlanes([]colorspace.RGB{{R: 0.02, G: 0.02, B: 0.02}}, 100)
	low := dim.offLevel()
	putScratch(dim)
	if high <= low {
		t.Errorf("off level did not scale: bright %v, dim %v", high, low)
	}
	if low < 8 {
		t.Errorf("off level floor violated: %v", low)
	}
	// Empty strips are the caller's (planInto's) problem: it skips the
	// off-level fit entirely and the classifier keeps its previous value.
	empty := getScratch(0)
	defer putScratch(empty)
	a := getAnalysis()
	defer recycleAnalysis(a)
	empty.planInto(a, nil, 10)
	cls := newClassifier()
	before := cls.offLevel
	cls.emitSymbolsInto(nil, a)
	if cls.offLevel != before {
		t.Errorf("empty strip changed off level: %v -> %v", before, cls.offLevel)
	}
}

func TestFrameSymbolsSplitsMergedRuns(t *testing.T) {
	// A frame showing R R G (two identical then one different) must
	// produce three symbols.
	prof := camera.Ideal()
	cam := camera.New(prof, 1)
	cam.SetManual(100e-6, 100)
	rate := 1000.0
	var drives []colorspace.RGB
	for i := 0; i < 40; i++ {
		switch i % 3 {
		case 0, 1:
			drives = append(drives, colorspace.RGB{R: 1})
		default:
			drives = append(drives, colorspace.RGB{G: 1})
		}
	}
	w := mustWaveform(t, rate, drives)
	f := cam.Capture(w, 0)
	syms := columnarSymbols(f, rate, newClassifier())
	// Expect roughly activeTime*rate symbols with pattern RRG.
	want := int(prof.ActiveTime() * rate)
	if math.Abs(float64(len(syms)-want)) > 2 {
		t.Fatalf("got %d symbols, want ~%d", len(syms), want)
	}
	// Count R-ish vs G-ish data symbols: 2:1 ratio.
	var r, g int
	for _, s := range syms {
		if s.Kind != packet.KindData {
			continue
		}
		if s.AB.A > 0 {
			r++
		} else {
			g++
		}
	}
	if r < g || math.Abs(float64(r)-2*float64(g)) > 4 {
		t.Errorf("pattern ratio wrong: %d red-ish, %d green-ish", r, g)
	}
}

func TestFrameSymbolsDropsEdgeFragments(t *testing.T) {
	// Frame capture cuts symbols at the readout edges; tiny fragments
	// at the very start/end must be dropped, not emitted as symbols.
	prof := camera.Ideal()
	cam := camera.New(prof, 1)
	cam.SetManual(100e-6, 100)
	rate := 2000.0
	drives := make([]colorspace.RGB, 300)
	for i := range drives {
		if i%2 == 0 {
			drives[i] = colorspace.RGB{R: 1}
		} else {
			drives[i] = colorspace.RGB{B: 1}
		}
	}
	w := mustWaveform(t, rate, drives)
	// Start mid-symbol so an edge fragment exists.
	f := cam.Capture(w, 0.4/rate)
	syms := columnarSymbols(f, rate, newClassifier())
	want := prof.ActiveTime() * rate
	if float64(len(syms)) > want+2 {
		t.Errorf("edge fragments inflated symbol count: %d > ~%v", len(syms), want)
	}
}

func mustWaveform(t *testing.T, rate float64, drives []colorspace.RGB) *led.Waveform {
	t.Helper()
	w, err := led.NewWaveform(led.Config{SymbolRate: rate, Power: 1}, drives)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

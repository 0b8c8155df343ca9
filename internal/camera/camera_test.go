package camera

import (
	"math"
	"testing"

	"colorbars/internal/colorspace"
	"colorbars/internal/led"
)

// steadyWaveform returns a long waveform holding one constant color.
func steadyWaveform(t *testing.T, c colorspace.RGB, seconds float64) *led.Waveform {
	t.Helper()
	rate := 1000.0
	n := int(seconds * rate)
	drives := make([]colorspace.RGB, n)
	for i := range drives {
		drives[i] = c
	}
	w, err := led.NewWaveform(led.Config{SymbolRate: rate, Power: 1}, drives)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestProfileValidation(t *testing.T) {
	for name, p := range Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %q invalid: %v", name, err)
		}
	}
	bad := Nexus5()
	bad.Rows = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected error for zero rows")
	}
	bad = Nexus5()
	bad.RowTime = 1 // active time exceeds frame period
	if err := bad.Validate(); err == nil {
		t.Error("expected error for huge row time")
	}
	bad = Nexus5()
	bad.MaxExposure = bad.MinExposure / 2
	if err := bad.Validate(); err == nil {
		t.Error("expected error for inverted exposure range")
	}
}

func TestProfileValidationRejectsSensorParams(t *testing.T) {
	fields := map[string]func(*Profile, float64){
		"ToneGamma":  func(p *Profile, v float64) { p.ToneGamma = v },
		"Vignetting": func(p *Profile, v float64) { p.Vignetting = v },
		"ReadNoise":  func(p *Profile, v float64) { p.ReadNoise = v },
		"ShotNoise":  func(p *Profile, v float64) { p.ShotNoise = v },
	}
	for name, set := range fields {
		for _, v := range []float64{-0.1, math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := Nexus5()
			set(&p, v)
			if err := p.Validate(); err == nil {
				t.Errorf("%s = %v accepted", name, v)
			}
		}
		p := Nexus5()
		set(&p, 0)
		if err := p.Validate(); err != nil {
			t.Errorf("%s = 0 rejected: %v", name, err)
		}
	}
}

func TestOneRowProfileWithVignetting(t *testing.T) {
	p := Ideal()
	p.Rows, p.Cols = 1, 8
	p.Vignetting = 0.4
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	cam := New(p, 1)
	cam.SetManual(100e-6, 100)
	f := cam.Capture(steadyWaveform(t, colorspace.RGB{R: 0.02, G: 0.02, B: 0.02}, 0.2), 0.01)
	for c := 0; c < f.Cols; c++ {
		if px := f.At(0, c); math.IsNaN(px.R) || math.IsNaN(px.G) || math.IsNaN(px.B) {
			t.Fatalf("pixel (0,%d) = %v", c, px)
		}
	}
	if mid, edge := f.At(0, 3).R, f.At(0, 0).R; mid <= edge {
		t.Errorf("center column %v not brighter than edge %v", mid, edge)
	}
}

func TestLossRatiosMatchPaper(t *testing.T) {
	// Table 1: Nexus 5 loss ratio 0.2312, iPhone 5S 0.3727.
	if got := Nexus5().LossRatio(); math.Abs(got-0.2312) > 1e-6 {
		t.Errorf("Nexus 5 loss ratio = %v, want 0.2312", got)
	}
	if got := IPhone5S().LossRatio(); math.Abs(got-0.3727) > 1e-6 {
		t.Errorf("iPhone 5S loss ratio = %v, want 0.3727", got)
	}
}

func TestFrameTimingConsistency(t *testing.T) {
	for name, p := range Profiles() {
		if p.ActiveTime()+p.GapTime()-p.FramePeriod() > 1e-12 {
			t.Errorf("%s: active+gap != period", name)
		}
		if p.GapTime() <= 0 {
			t.Errorf("%s: non-positive gap", name)
		}
	}
}

func TestNewPanicsOnInvalidProfile(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Profile{}, 1)
}

func TestCaptureSteadyWhite(t *testing.T) {
	cam := New(Ideal(), 1)
	cam.SetManual(500e-6, 100)
	w := steadyWaveform(t, colorspace.RGB{R: 1, G: 1, B: 1}, 0.2)
	f := cam.Capture(w, 0.01)
	// All rows see the same steady light; with no noise/vignetting the
	// frame must be uniform and gray-balanced.
	first := f.At(0, 0)
	if first.R <= 0 {
		t.Fatal("black frame")
	}
	for r := 0; r < f.Rows; r += 97 {
		for c := 0; c < f.Cols; c++ {
			p := f.At(r, c)
			if math.Abs(p.R-first.R) > 1e-6 || math.Abs(p.G-first.G) > 1e-6 || math.Abs(p.B-first.B) > 1e-6 {
				t.Fatalf("non-uniform ideal frame at (%d,%d): %v vs %v", r, c, p, first)
			}
		}
	}
	if math.Abs(first.R-first.G) > 1e-6 || math.Abs(first.G-first.B) > 1e-6 {
		t.Errorf("white not gray on sensor: %v", first)
	}
}

func TestCaptureExposureScalesLevel(t *testing.T) {
	cam := New(Ideal(), 1)
	w := steadyWaveform(t, colorspace.RGB{R: 0.02, G: 0.02, B: 0.02}, 0.2)
	cam.SetManual(100e-6, 100)
	lo := cam.Capture(w, 0.01).MeanLevel()
	cam.SetManual(200e-6, 100)
	hi := cam.Capture(w, 0.01).MeanLevel()
	if math.Abs(hi/lo-2) > 0.02 {
		t.Errorf("doubling exposure scaled level by %v, want ~2", hi/lo)
	}
}

func TestCaptureISOScalesLevel(t *testing.T) {
	cam := New(Ideal(), 1)
	w := steadyWaveform(t, colorspace.RGB{R: 0.02, G: 0.02, B: 0.02}, 0.2)
	cam.SetManual(100e-6, 100)
	lo := cam.Capture(w, 0.01).MeanLevel()
	cam.SetManual(100e-6, 200)
	hi := cam.Capture(w, 0.01).MeanLevel()
	if math.Abs(hi/lo-2) > 0.02 {
		t.Errorf("doubling ISO scaled level by %v, want ~2", hi/lo)
	}
}

func TestSaturationClipsChannel(t *testing.T) {
	cam := New(Ideal(), 1)
	cam.SetManual(8e-3, 1600) // grossly overexposed
	w := steadyWaveform(t, colorspace.RGB{R: 1, G: 1, B: 1}, 0.3)
	f := cam.Capture(w, 0.01)
	p := f.At(f.Rows/2, 0)
	if p.R != 1 || p.G != 1 || p.B != 1 {
		t.Errorf("overexposed pixel %v, want saturated white", p)
	}
}

func TestRollingShutterBands(t *testing.T) {
	// An alternating red/green LED must appear as alternating bands
	// along the row axis, each roughly symbolPeriod/rowTime rows wide.
	p := Ideal()
	cam := New(p, 1)
	cam.SetManual(100e-6, 100)
	rate := 1000.0
	n := 400
	drives := make([]colorspace.RGB, n)
	for i := range drives {
		if i%2 == 0 {
			drives[i] = colorspace.RGB{R: 1}
		} else {
			drives[i] = colorspace.RGB{G: 1}
		}
	}
	w, _ := led.NewWaveform(led.Config{SymbolRate: rate, Power: 1}, drives)
	f := cam.Capture(w, 0)
	// Count transitions between red-dominant and green-dominant rows.
	var transitions int
	prevRed := f.RowMean(0).R > f.RowMean(0).G
	for r := 1; r < f.Rows; r++ {
		m := f.RowMean(r)
		red := m.R > m.G
		if red != prevRed {
			transitions++
			prevRed = red
		}
	}
	expected := p.ActiveTime() * rate // one transition per symbol period
	if math.Abs(float64(transitions)-expected) > expected*0.1 {
		t.Errorf("transitions = %d, want ~%v", transitions, expected)
	}
}

func TestBandWidthShrinksWithSymbolRate(t *testing.T) {
	// Fig 3(c): higher symbol frequency → narrower bands.
	widthAt := func(rate float64) float64 {
		p := Ideal()
		cam := New(p, 1)
		cam.SetManual(100e-6, 100)
		n := int(0.2 * rate)
		drives := make([]colorspace.RGB, n)
		for i := range drives {
			if i%2 == 0 {
				drives[i] = colorspace.RGB{R: 1}
			} else {
				drives[i] = colorspace.RGB{G: 1}
			}
		}
		w, _ := led.NewWaveform(led.Config{SymbolRate: rate, Power: 1}, drives)
		f := cam.Capture(w, 0)
		// Average run length of same-dominant-color rows.
		var runs, rows int
		prevRed := f.RowMean(0).R > f.RowMean(0).G
		run := 1
		for r := 1; r < f.Rows; r++ {
			m := f.RowMean(r)
			red := m.R > m.G
			if red == prevRed {
				run++
			} else {
				runs++
				rows += run
				run = 1
				prevRed = red
			}
		}
		return float64(rows) / float64(runs)
	}
	w1 := widthAt(1000)
	w3 := widthAt(3000)
	if w3 >= w1 {
		t.Errorf("band width did not shrink: %v @1kHz vs %v @3kHz", w1, w3)
	}
	if ratio := w1 / w3; math.Abs(ratio-3) > 0.5 {
		t.Errorf("width ratio = %v, want ~3", ratio)
	}
}

func TestInterFrameGapLosesSymbols(t *testing.T) {
	// Symbols emitted during the gap must not appear in any frame.
	p := Ideal()
	cam := New(p, 1)
	cam.SetManual(100e-6, 100)
	rate := 1000.0
	w := steadyWaveform(t, colorspace.RGB{R: 1, G: 1, B: 1}, 1.0)
	frames := cam.CaptureVideo(w, 0, 3)
	if len(frames) != 3 {
		t.Fatalf("got %d frames", len(frames))
	}
	// The last row of frame i must end before frame i+1 begins, with a
	// gap in between.
	for i := 0; i < 2; i++ {
		endOfActive := frames[i].Start + p.ActiveTime()
		nextStart := frames[i+1].Start
		if nextStart-endOfActive < p.GapTime()*0.9 {
			t.Errorf("frames %d/%d gap = %v, want ~%v", i, i+1, nextStart-endOfActive, p.GapTime())
		}
	}
	_ = rate
}

func TestColorMatrixShiftsColors(t *testing.T) {
	// The same pure-red light must be sensed differently by the two
	// phone profiles, and the iPhone must be closer to the truth
	// (Fig 6a + §8 observation).
	w := steadyWaveform(t, colorspace.RGB{R: 0.05}, 0.2)
	sense := func(p Profile) colorspace.RGB {
		p.ReadNoise, p.ShotNoise, p.Vignetting = 0, 0, 0
		cam := New(p, 1)
		cam.SetManual(1e-3, 100)
		f := cam.Capture(w, 0.01)
		return f.At(f.Rows/2, f.Cols/2)
	}
	nexus := sense(Nexus5())
	iphone := sense(IPhone5S())
	if nexus == iphone {
		t.Error("devices perceive identical colors; diversity not modeled")
	}
	// Distance from a pure-red direction: fraction of energy leaked to G/B.
	leak := func(c colorspace.RGB) float64 {
		total := c.R + c.G + c.B
		return (c.G + c.B) / total
	}
	if leak(iphone) >= leak(nexus) {
		t.Errorf("iPhone leak %v should be below Nexus leak %v", leak(iphone), leak(nexus))
	}
}

func TestColorMatrixPreservesWhite(t *testing.T) {
	for name, p := range Profiles() {
		var rowSums [3]float64
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				rowSums[i] += p.ColorMatrix[i][j]
			}
		}
		for i, s := range rowSums {
			if math.Abs(s-1) > 0.01 {
				t.Errorf("%s matrix row %d sums to %v, want 1 (white preservation)", name, i, s)
			}
		}
	}
}

func TestVignettingCenterBrighter(t *testing.T) {
	p := Nexus5()
	p.ReadNoise, p.ShotNoise = 0, 0
	cam := New(p, 1)
	cam.SetManual(500e-6, 100)
	w := steadyWaveform(t, colorspace.RGB{R: 0.1, G: 0.1, B: 0.1}, 0.2)
	f := cam.Capture(w, 0.01)
	center := f.At(f.Rows/2, f.Cols/2).Luma()
	corner := f.At(0, 0).Luma()
	if center <= corner {
		t.Errorf("center %v not brighter than corner %v", center, corner)
	}
	if center/corner < 1.2 {
		t.Errorf("vignetting too weak: ratio %v", center/corner)
	}
}

func TestAutoExposureConverges(t *testing.T) {
	p := Nexus5()
	cam := New(p, 1)
	w := steadyWaveform(t, colorspace.RGB{R: 0.05, G: 0.05, B: 0.05}, 3)
	var level float64
	for i := 0; i < 20; i++ {
		f := cam.Capture(w, float64(i)*p.FramePeriod())
		level = f.MeanLevel()
	}
	if math.Abs(level-p.TargetLevel) > 0.1 {
		t.Errorf("AE settled at %v, want ~%v", level, p.TargetLevel)
	}
}

func TestAutoExposureAdaptsToBrightness(t *testing.T) {
	p := Ideal()
	dim := steadyWaveform(t, colorspace.RGB{R: 0.01, G: 0.01, B: 0.01}, 3)
	bright := steadyWaveform(t, colorspace.RGB{R: 1, G: 1, B: 1}, 3)
	run := func(w *led.Waveform) float64 {
		cam := New(p, 1)
		for i := 0; i < 15; i++ {
			cam.Capture(w, float64(i)*p.FramePeriod())
		}
		return cam.Exposure() * cam.ISO()
	}
	if gDim, gBright := run(dim), run(bright); gDim <= gBright {
		t.Errorf("dim gain %v should exceed bright gain %v", gDim, gBright)
	}
}

func TestManualModeSticks(t *testing.T) {
	p := Nexus5()
	cam := New(p, 1)
	cam.SetManual(2e-3, 400)
	w := steadyWaveform(t, colorspace.RGB{R: 0.5, G: 0.5, B: 0.5}, 2)
	cam.Capture(w, 0)
	cam.Capture(w, p.FramePeriod())
	if cam.Exposure() != 2e-3 || cam.ISO() != 400 {
		t.Errorf("manual settings drifted: %v / %v", cam.Exposure(), cam.ISO())
	}
	cam.SetAuto()
	cam.Capture(w, 2*p.FramePeriod())
	if cam.Exposure() == 2e-3 && cam.ISO() == 400 {
		t.Error("auto mode did not adjust")
	}
}

func TestSetManualClamps(t *testing.T) {
	p := Nexus5()
	cam := New(p, 1)
	cam.SetManual(100, 1e6)
	if cam.Exposure() != p.MaxExposure || cam.ISO() != p.MaxISO {
		t.Errorf("not clamped: %v / %v", cam.Exposure(), cam.ISO())
	}
}

func TestNoiseIsDeterministicPerSeed(t *testing.T) {
	p := Nexus5()
	w := steadyWaveform(t, colorspace.RGB{R: 0.1, G: 0.1, B: 0.1}, 0.2)
	capture := func(seed int64) *Frame {
		cam := New(p, seed)
		cam.SetManual(1e-3, 100)
		return cam.Capture(w, 0.01)
	}
	a, b, c := capture(7), capture(7), capture(8)
	same, diff := true, false
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			same = false
		}
		if a.Pix[i] != c.Pix[i] {
			diff = true
		}
	}
	if !same {
		t.Error("same seed produced different frames")
	}
	if !diff {
		t.Error("different seeds produced identical frames")
	}
}

func TestNoiseGrowsWithISO(t *testing.T) {
	p := Nexus5()
	p.Vignetting = 0
	w := steadyWaveform(t, colorspace.RGB{R: 0.002, G: 0.002, B: 0.002}, 0.2)
	spread := func(iso float64) float64 {
		cam := New(p, 3)
		cam.SetManual(200e-6, iso)
		f := cam.Capture(w, 0.01)
		var mean, m2 float64
		n := float64(len(f.Pix))
		for _, px := range f.Pix {
			mean += px.Luma()
		}
		mean /= n
		for _, px := range f.Pix {
			d := px.Luma() - mean
			m2 += d * d
		}
		return math.Sqrt(m2 / n)
	}
	if s100, s1600 := spread(100), spread(1600); s1600 <= s100 {
		t.Errorf("ISO 1600 spread %v should exceed ISO 100 spread %v", s1600, s100)
	}
}

func TestRowMidTime(t *testing.T) {
	p := Ideal()
	cam := New(p, 1)
	cam.SetManual(100e-6, 100)
	w := steadyWaveform(t, colorspace.RGB{R: 1}, 0.2)
	f := cam.Capture(w, 0.05)
	want := 0.05 + 10*p.RowTime + f.Exposure/2
	if got := f.RowMidTime(10); math.Abs(got-want) > 1e-12 {
		t.Errorf("RowMidTime = %v, want %v", got, want)
	}
}

func TestQuantization(t *testing.T) {
	p := Ideal()
	p.QuantBits = 2 // 4 levels: 0, 1/3, 2/3, 1
	cam := New(p, 1)
	cam.SetManual(1e-3, 100)
	w := steadyWaveform(t, colorspace.RGB{R: 0.055, G: 0.055, B: 0.055}, 0.2)
	f := cam.Capture(w, 0.01)
	v := f.At(100, 0).R
	levels := map[float64]bool{0: true, 1.0 / 3: true, 2.0 / 3: true, 1: true}
	found := false
	for l := range levels {
		if math.Abs(v-l) < 1e-9 {
			found = true
		}
	}
	if !found {
		t.Errorf("pixel %v not on a 2-bit level", v)
	}
}

// BenchmarkCapture times one auto-exposed frame per built-in profile
// against a 2 kHz waveform.
func BenchmarkCapture(b *testing.B) {
	drives := make([]colorspace.RGB, 4000)
	for i := range drives {
		drives[i] = colorspace.RGB{R: float64(i % 2), G: 0.5, B: 0.2}
	}
	w, err := led.NewWaveform(led.Config{SymbolRate: 2000, Power: 1}, drives)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"nexus5", "iphone5s", "ideal"} {
		b.Run(name, func(b *testing.B) {
			cam := New(Profiles()[name], 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchFrame = cam.Capture(w, 0.1)
			}
		})
	}
}

// benchFrame keeps BenchmarkCapture's result live.
var benchFrame *Frame

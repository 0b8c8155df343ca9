package camera

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"colorbars/internal/colorspace"
	"colorbars/internal/led"
)

// captureRef is the sensor model evaluated literally: the per-pixel
// math.Pow tone curve and rounding ADC, vignetting recomputed per
// pixel, the noise closure and a blur kernel built per capture. It
// shares the camera's generator and exposure state, so a camera
// driven only through captureRef must produce the frames Capture
// produces from the same seed.
func captureRef(c *Camera, w Source, start float64) *Frame {
	p := c.profile
	f := &Frame{
		Rows:     p.Rows,
		Cols:     p.Cols,
		Pix:      make([]colorspace.RGB, p.Rows*p.Cols),
		Start:    start,
		Exposure: c.exposure,
		ISO:      c.iso,
		RowTime:  p.RowTime,
	}
	gain := c.exposure * c.iso * p.Sensitivity
	maxLevel := float64(int(1)<<p.QuantBits - 1)
	gamma := p.ToneGamma
	if gamma == 0 {
		gamma = 1
	}
	rowSensed := make([]colorspace.RGB, p.Rows)
	for r := 0; r < p.Rows; r++ {
		t0 := start + float64(r)*p.RowTime
		radiance := w.Mean(t0, t0+c.exposure)
		rowSensed[r] = applyMatrix(p.ColorMatrix, radiance).Scale(gain)
	}
	if p.OpticalBlurRows > 0 {
		rowSensed = blurRowsRef(rowSensed, p.OpticalBlurRows)
	}
	falloff := func(row, col int) float64 {
		if p.Vignetting == 0 {
			return 1
		}
		dr := (float64(row)/float64(p.Rows-1) - 0.5) * 2
		dc := 0.0
		if p.Cols > 1 {
			dc = (float64(col)/float64(p.Cols-1) - 0.5) * 2
		}
		r2 := (dr*dr + dc*dc) / 2
		d := 1 + p.Vignetting*r2
		return 1 / (d * d)
	}
	addNoise := func(v colorspace.RGB) colorspace.RGB {
		isoGain := c.iso / 100
		sigmaRead := p.ReadNoise * isoGain
		noise := func(x float64) float64 {
			sigma := sigmaRead
			if x > 0 {
				sigma += p.ShotNoise * math.Sqrt(x)
			}
			return x + c.rng.NormFloat64()*sigma
		}
		return colorspace.RGB{R: noise(v.R), G: noise(v.G), B: noise(v.B)}
	}
	for r := 0; r < p.Rows; r++ {
		sensed := rowSensed[r]
		for col := 0; col < p.Cols; col++ {
			v := sensed.Scale(falloff(r, col))
			if p.ShotNoise > 0 || p.ReadNoise > 0 {
				v = addNoise(v)
			}
			v = v.Clamp()
			if gamma != 1 {
				v = colorspace.RGB{
					R: math.Pow(v.R, gamma),
					G: math.Pow(v.G, gamma),
					B: math.Pow(v.B, gamma),
				}
			}
			v.R = math.Round(v.R*maxLevel) / maxLevel
			v.G = math.Round(v.G*maxLevel) / maxLevel
			v.B = math.Round(v.B*maxLevel) / maxLevel
			f.Pix[r*p.Cols+col] = v
		}
	}
	if !c.manual {
		c.autoExpose(f)
	}
	return f
}

// captureVideoRef is CaptureVideo driving captureRef.
func captureVideoRef(c *Camera, w Source, start float64, n int) []*Frame {
	frames := make([]*Frame, 0, n)
	period := c.profile.FramePeriod()
	maxJitter := c.profile.GapTime() * 0.45
	for i := 0; i < n; i++ {
		t := start + float64(i)*period
		if c.profile.FrameJitter > 0 {
			j := c.rng.NormFloat64() * c.profile.FrameJitter * period
			if j > maxJitter {
				j = maxJitter
			}
			if j < -maxJitter {
				j = -maxJitter
			}
			t += j
		}
		frames = append(frames, captureRef(c, w, t))
	}
	return frames
}

// blurRowsRef is the Gaussian row blur with its kernel built inline.
func blurRowsRef(rows []colorspace.RGB, sigma float64) []colorspace.RGB {
	radius := int(3*sigma + 0.5)
	if radius < 1 {
		radius = 1
	}
	kernel := make([]float64, 2*radius+1)
	var sum float64
	for i := range kernel {
		d := float64(i - radius)
		kernel[i] = math.Exp(-d * d / (2 * sigma * sigma))
		sum += kernel[i]
	}
	for i := range kernel {
		kernel[i] /= sum
	}
	out := make([]colorspace.RGB, len(rows))
	for r := range rows {
		var acc colorspace.RGB
		for i, kv := range kernel {
			src := r + i - radius
			if src < 0 {
				src = 0
			}
			if src >= len(rows) {
				src = len(rows) - 1
			}
			acc = acc.Add(rows[src].Scale(kv))
		}
		out[r] = acc
	}
	return out
}

// diffWaveform is a 4 kHz random-color waveform with dark stretches
// (blacked-out pixels) and full-power stretches (saturated ones).
func diffWaveform(t *testing.T, seed int64) *led.Waveform {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	drives := make([]colorspace.RGB, 4000*2)
	for i := range drives {
		switch phase := (i / 400) % 5; phase {
		case 0:
			// blackout
		case 1:
			drives[i] = colorspace.RGB{R: 1, G: 1, B: 1}
		default:
			drives[i] = colorspace.RGB{R: rng.Float64(), G: rng.Float64(), B: rng.Float64()}
		}
	}
	w, err := led.NewWaveform(led.Config{SymbolRate: 4000, Power: 1, DriveJitter: 0.05, Seed: seed}, drives)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// sameFrame reports the first bit-level difference between two frames.
func sameFrame(got, want *Frame) error {
	if math.Float64bits(got.Exposure) != math.Float64bits(want.Exposure) ||
		math.Float64bits(got.ISO) != math.Float64bits(want.ISO) ||
		math.Float64bits(got.Start) != math.Float64bits(want.Start) {
		return fmt.Errorf("settings (start %v, exposure %v, ISO %v), want (%v, %v, %v)",
			got.Start, got.Exposure, got.ISO, want.Start, want.Exposure, want.ISO)
	}
	if len(got.Pix) != len(want.Pix) {
		return fmt.Errorf("%d pixels, want %d", len(got.Pix), len(want.Pix))
	}
	for i, g := range got.Pix {
		w := want.Pix[i]
		if math.Float64bits(g.R) != math.Float64bits(w.R) ||
			math.Float64bits(g.G) != math.Float64bits(w.G) ||
			math.Float64bits(g.B) != math.Float64bits(w.B) {
			return fmt.Errorf("pixel %d = %v, want %v", i, g, w)
		}
	}
	return nil
}

// TestCaptureMatchesReference holds Capture to the literal sensor model
// bit for bit: every built-in profile, six seeds, eight-frame videos,
// under auto exposure and under a manual setting bright enough to
// saturate.
func TestCaptureMatchesReference(t *testing.T) {
	for name, p := range Profiles() {
		for seed := int64(1); seed <= 6; seed++ {
			for _, manual := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/seed%d/manual=%v", name, seed, manual), func(t *testing.T) {
					w := diffWaveform(t, seed)
					got, ref := New(p, seed), New(p, seed)
					if manual {
						got.SetManual(2e-3, 400)
						ref.SetManual(2e-3, 400)
					}
					start := 0.013 * float64(seed)
					fast := got.CaptureVideo(w, start, 8)
					slow := captureVideoRef(ref, w, start, 8)
					for i := range slow {
						if err := sameFrame(fast[i], slow[i]); err != nil {
							t.Fatalf("frame %d: %v", i, err)
						}
					}
					if got.Exposure() != ref.Exposure() || got.ISO() != ref.ISO() {
						t.Errorf("next settings %v/%v, want %v/%v", got.Exposure(), got.ISO(), ref.Exposure(), ref.ISO())
					}
				})
			}
		}
	}
}

// TestADCMatchesToneADC checks the threshold quantizer against the
// formula on uniform samples, on samples within a few ulps of every
// threshold and of the edges of every fallback window, and on the
// domain edges, for the built-in profiles' (γ, bits) and two more
// exponents on either side of 1.
func TestADCMatchesToneADC(t *testing.T) {
	type cfg struct {
		gamma float64
		bits  int
	}
	var cfgs []cfg
	for _, p := range Profiles() {
		cfgs = append(cfgs, cfg{p.toneGamma(), p.QuantBits})
	}
	for _, g := range []float64{0.5, 1.3} {
		cfgs = append(cfgs, cfg{g, 8}, cfg{g, 16})
	}
	for _, c := range cfgs {
		t.Run(fmt.Sprintf("gamma%v/bits%d", c.gamma, c.bits), func(t *testing.T) {
			t.Parallel()
			q := adcFor(c.gamma, c.bits)
			fails := 0
			check := func(x float64) {
				got, want := q.quantize(x), toneADC(x, c.gamma, q.maxLevel)
				if math.Float64bits(got) == math.Float64bits(want) ||
					(math.IsNaN(got) && math.IsNaN(want)) {
					return
				}
				if fails++; fails <= 5 {
					t.Errorf("quantize(%v) = %v, want %v", x, got, want)
				}
			}
			rng := rand.New(rand.NewSource(int64(c.bits) + int64(c.gamma*1000)))
			for i := 0; i < 10_000_000; i++ {
				check(rng.Float64())
			}
			for k := 1; k < len(q.thresh)-1; k++ {
				for _, centre := range []float64{q.thresh[k], q.thresh[k] - adcEps, q.thresh[k] + adcEps} {
					lo, hi := centre, centre
					for i := 0; i < 4; i++ {
						lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, 2)
						check(lo)
						check(hi)
					}
					check(centre)
				}
			}
			for _, x := range []float64{
				0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1, math.Nextafter(1, 0),
				math.Nextafter(1, 2), -1e-300, 2, math.Inf(1), math.Inf(-1),
			} {
				check(x)
			}
			if got := q.quantize(math.NaN()); !math.IsNaN(got) {
				t.Errorf("quantize(NaN) = %v, want NaN", got)
			}
		})
	}
}

// TestADCTablesShared checks that cameras with the same tone curve and
// ADC depth share one quantizer, also when they are built concurrently.
func TestADCTablesShared(t *testing.T) {
	p := Nexus5()
	p.ToneGamma, p.QuantBits = 0.6, 10 // a key no other test builds
	cams := make([]*Camera, 8)
	var wg sync.WaitGroup
	for i := range cams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cams[i] = New(p, int64(i))
		}(i)
	}
	wg.Wait()
	for i, c := range cams {
		if c.adc != cams[0].adc {
			t.Fatalf("camera %d built its own quantizer tables", i)
		}
	}
	if New(IPhone5S(), 1).adc == New(Nexus5(), 1).adc {
		t.Error("iPhone 5S shares the Nexus 5 quantizer despite a different tone curve")
	}
}

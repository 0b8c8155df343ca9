// Package fault is a seedable, deterministic fault-injection layer
// for the channel/camera boundary. It composes the impairments that
// mobile LED-to-camera links suffer in the field but that the clean
// simulator never produces: occlusion bursts (line of sight blocked
// for a stretch of frames), exposure/AWB drift ramps and steps,
// additive noise bursts that corrupt calibration packets, symbol-clock
// skew between the transmitter PWM and the receiver row clock, and
// frame-level damage (drops, duplicates, truncated readouts).
//
// Two injection points cover the whole capture path:
//
//	waveform → [WrapSource: occlusion, drift, skew, noise] → camera
//	camera frames → [FilterFrames: drop, duplicate, truncate] → receiver
//
// Everything is a pure function of (seed, schedule, time): WrapSource
// keeps the camera.Source contract of being callable concurrently and
// repeatably, so a soak run with the same seed produces byte-identical
// decodes. That determinism is what turns a chaos harness into a
// regression test.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"colorbars/internal/camera"
	"colorbars/internal/colorspace"
	"colorbars/internal/telemetry"
)

// Class identifies one impairment family.
type Class uint8

// Impairment classes. Source-level classes perturb the radiance the
// camera integrates; frame-level classes damage the captured sequence.
const (
	// FrameDrop removes captured frames inside the window with
	// probability Magnitude per frame (camera pipeline stalls, USB/ISP
	// backpressure). The receiver sees a longer inter-frame gap.
	FrameDrop Class = iota
	// FrameDuplicate re-delivers a frame inside the window with
	// probability Magnitude (buffer re-reads in real capture stacks).
	FrameDuplicate
	// FrameTruncation cuts frames inside the window short, keeping only
	// a 1−Magnitude fraction of the scanlines (partial readout).
	FrameTruncation
	// Occlusion attenuates the LED radiance by Magnitude (1 = total
	// blockage) for the window — a hand or obstacle crossing the LOS.
	Occlusion
	// AmbientStep adds a white pedestal of Magnitude radiance units for
	// exactly the window, then removes it (a light switched on and off).
	AmbientStep
	// AmbientRamp ramps a white pedestal from 0 to Magnitude across the
	// window and holds it afterwards (daylight change; the AE loop and
	// recalibration must absorb it).
	AmbientRamp
	// AWBDrift ramps an opposing red/blue channel gain tilt of relative
	// size Magnitude across the window and holds it (white-balance
	// hunting). It rotates the received constellation, so only
	// transmitter-assisted recalibration recovers it.
	AWBDrift
	// NoiseBurst adds zero-mean blocky pseudo-noise of amplitude
	// Magnitude radiance units during the window. Aimed at a
	// calibration packet it corrupts the reference colors themselves.
	NoiseBurst
	// ClockSkew dilates the source clock by fractional rate Magnitude
	// for the window (tx PWM vs rx row clock drift); the accumulated
	// phase offset persists after the window ends, as real oscillator
	// drift does.
	ClockSkew

	numClasses
)

var classNames = map[Class]string{
	FrameDrop:       "frame-drop",
	FrameDuplicate:  "frame-duplicate",
	FrameTruncation: "frame-truncation",
	Occlusion:       "occlusion",
	AmbientStep:     "ambient-step",
	AmbientRamp:     "ambient-ramp",
	AWBDrift:        "awb-drift",
	NoiseBurst:      "noise-burst",
	ClockSkew:       "clock-skew",
}

func (c Class) String() string {
	if n, ok := classNames[c]; ok {
		return n
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Classes returns every impairment class in declaration order.
func Classes() []Class {
	out := make([]Class, 0, int(numClasses))
	for c := Class(0); c < numClasses; c++ {
		out = append(out, c)
	}
	return out
}

// ParseClass resolves a class name as printed by String (used by the
// cmd tools' -faults flags).
func ParseClass(name string) (Class, error) {
	for c, n := range classNames {
		if n == name {
			return c, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown class %q", name)
}

// Event is one scheduled impairment: a class active over
// [Start, Start+Duration) seconds on the waveform clock with a
// class-specific Magnitude (see the Class constants).
type Event struct {
	Class     Class
	Start     float64
	Duration  float64
	Magnitude float64
}

// SettleTime returns the time after which the event stops disturbing
// new symbols: box-shaped events end, ramp events reach their final
// value and hold. Receiver recovery latency is measured from here.
func (e Event) SettleTime() float64 { return e.Start + e.Duration }

func (e Event) String() string {
	return fmt.Sprintf("%s[%.3fs+%.3fs m=%.3g]", e.Class, e.Start, e.Duration, e.Magnitude)
}

// Schedule is a set of impairment events. The zero value injects
// nothing.
type Schedule struct {
	Events []Event
}

// Empty reports whether the schedule injects anything.
func (s Schedule) Empty() bool { return len(s.Events) == 0 }

func (s Schedule) String() string {
	if s.Empty() {
		return "none"
	}
	parts := make([]string, 0, len(s.Events))
	for _, e := range s.Events {
		parts = append(parts, e.String())
	}
	return strings.Join(parts, " ")
}

// SettleTimes returns each event's settle time, ascending — the
// checkpoints after which a soak expects the receiver to re-acquire.
func (s Schedule) SettleTimes() []float64 {
	out := make([]float64, 0, len(s.Events))
	for _, e := range s.Events {
		out = append(out, e.SettleTime())
	}
	sort.Float64s(out)
	return out
}

// RandomSchedule draws one event per requested class with randomized
// but seed-deterministic placement and severity. Events land in the
// middle of the run: the first ~25% is left clean so the receiver can
// lock and calibrate, and the tail is left clean so recovery latency
// is measurable. With no classes given, every class is scheduled.
func RandomSchedule(seed int64, duration float64, classes ...Class) Schedule {
	if len(classes) == 0 {
		classes = Classes()
	}
	rng := rand.New(rand.NewSource(seed))
	var s Schedule
	for _, c := range classes {
		start := duration * (0.25 + 0.25*rng.Float64())
		dur := duration * (0.05 + 0.15*rng.Float64())
		if end := duration * 0.7; start+dur > end {
			dur = end - start
		}
		var mag float64
		switch c {
		case FrameDrop:
			mag = 0.4 + 0.4*rng.Float64()
		case FrameDuplicate:
			mag = 0.2 + 0.3*rng.Float64()
		case FrameTruncation:
			mag = 0.3 + 0.3*rng.Float64()
		case Occlusion:
			mag = 0.95 + 0.05*rng.Float64()
		case AmbientStep:
			mag = 0.05 + 0.10*rng.Float64()
		case AmbientRamp:
			mag = 0.10 + 0.20*rng.Float64()
		case AWBDrift:
			mag = 0.10 + 0.15*rng.Float64()
		case NoiseBurst:
			mag = 0.15 + 0.25*rng.Float64()
		case ClockSkew:
			mag = (1 + 2*rng.Float64()) * 1e-3
		}
		s.Events = append(s.Events, Event{Class: c, Start: start, Duration: dur, Magnitude: mag})
	}
	return s
}

// DeriveSeed maps one root seed plus a component label to an
// independent sub-seed, so a single -seed flag reproducibly drives
// every stochastic component (camera noise, fault schedules, per-stream
// variations) without correlating them.
func DeriveSeed(root int64, label string) int64 {
	// FNV-1a over the label, mixed with the root through splitmix64.
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return int64(splitmix64(h ^ uint64(root)))
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-mixed 64-bit hash used wherever the injector needs noise that
// is a pure function of time or frame index.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unitFloat maps a hash to [0, 1).
func unitFloat(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Config configures an injector.
type Config struct {
	// Seed drives every stochastic choice the injector makes (per-frame
	// drop/duplicate coin flips, noise-burst texture). Schedules are
	// seeded separately by RandomSchedule so the same impairment
	// timeline can be replayed against different noise realizations.
	Seed int64
	// Schedule is the impairment timeline.
	Schedule Schedule
	// Telemetry optionally receives fault.* counters. Nil is inert.
	Telemetry *telemetry.Registry
}

// Injector applies a Schedule at the two capture-path injection
// points. All methods are safe for concurrent use: injection is a pure
// function of configuration and time.
type Injector struct {
	cfg Config

	dropped    *telemetry.Counter
	duplicated *telemetry.Counter
	truncated  *telemetry.Counter
}

// New returns an injector for the configuration.
func New(cfg Config) *Injector {
	in := &Injector{cfg: cfg}
	if t := cfg.Telemetry; t != nil {
		in.dropped = t.Counter("fault.frames_dropped")
		in.duplicated = t.Counter("fault.frames_duplicated")
		in.truncated = t.Counter("fault.frames_truncated")
	}
	return in
}

// WrapSource wraps a radiance source with the schedule's source-level
// impairments (occlusion, ambient, AWB drift, noise bursts, clock
// skew). The wrapped source remains safe for concurrent use.
func (in *Injector) WrapSource(src camera.Source) camera.Source {
	return &faultSource{in: in, src: src}
}

type faultSource struct {
	in  *Injector
	src camera.Source
}

// Mean applies the clock warp to the sampled interval, reads the
// underlying source, then applies the radiometric impairments active
// at the interval midpoint.
func (fs *faultSource) Mean(t0, t1 float64) colorspace.RGB {
	in := fs.in
	v := fs.src.Mean(in.warp(t0), in.warp(t1))
	tm := (t0 + t1) / 2
	for i, e := range in.cfg.Schedule.Events {
		switch e.Class {
		case Occlusion:
			if boxActive(e, tm) {
				v = v.Scale(1 - e.Magnitude)
			}
		case AmbientStep:
			if boxActive(e, tm) {
				v = v.Add(colorspace.RGB{R: e.Magnitude, G: e.Magnitude, B: e.Magnitude})
			}
		case AmbientRamp:
			if u := rampProgress(e, tm); u > 0 {
				m := e.Magnitude * u
				v = v.Add(colorspace.RGB{R: m, G: m, B: m})
			}
		case AWBDrift:
			if u := rampProgress(e, tm); u > 0 {
				tilt := e.Magnitude * u
				v = colorspace.RGB{R: v.R * (1 + tilt), G: v.G, B: v.B * (1 - tilt)}
			}
		case NoiseBurst:
			if boxActive(e, tm) {
				v = v.Add(in.burstNoise(i, tm, e.Magnitude))
			}
		}
	}
	if v.R < 0 {
		v.R = 0
	}
	if v.G < 0 {
		v.G = 0
	}
	if v.B < 0 {
		v.B = 0
	}
	return v
}

// warp maps receiver time to transmitter time under the schedule's
// clock-skew events: within a window the source clock runs fast by the
// fractional rate Magnitude, and the accumulated offset persists after
// the window (oscillator drift does not rewind).
func (in *Injector) warp(t float64) float64 {
	w := t
	for _, e := range in.cfg.Schedule.Events {
		if e.Class != ClockSkew {
			continue
		}
		el := t - e.Start
		if el <= 0 {
			continue
		}
		if el > e.Duration {
			el = e.Duration
		}
		w += e.Magnitude * el
	}
	return w
}

// burstNoise returns the zero-mean pseudo-noise for event index ei at
// time tm. The texture is blocky at ~0.2 ms cells — a few scanlines —
// so it decorrelates bands without averaging out within one row
// exposure, and is a pure function of (seed, event, cell), keeping
// concurrent captures deterministic.
func (in *Injector) burstNoise(ei int, tm, amplitude float64) colorspace.RGB {
	cell := uint64(int64(tm * 5000))
	h := splitmix64(uint64(in.cfg.Seed) ^ cell ^ uint64(ei)*0x9e3779b97f4a7c15)
	n := func() float64 {
		h = splitmix64(h)
		return (unitFloat(h)*2 - 1) * amplitude
	}
	return colorspace.RGB{R: n(), G: n(), B: n()}
}

// boxActive reports whether a box-shaped event covers time t.
func boxActive(e Event, t float64) bool {
	return t >= e.Start && t < e.Start+e.Duration
}

// rampProgress returns 0 before a ramp event, its linear progress in
// [0, 1] inside the window, and 1 afterwards (ramps hold their final
// value).
func rampProgress(e Event, t float64) float64 {
	if t <= e.Start {
		return 0
	}
	if e.Duration <= 0 || t >= e.Start+e.Duration {
		return 1
	}
	return (t - e.Start) / e.Duration
}

// FilterFrames applies the schedule's frame-level impairments to a
// captured sequence: drops, duplicates, and truncation, each gated on
// the frame's capture start time and a per-frame seeded coin. The
// input slice is not modified; surviving frames are shared, truncated
// frames are shallow copies over a shortened pixel view.
func (in *Injector) FilterFrames(frames []*camera.Frame) []*camera.Frame {
	if in.cfg.Schedule.Empty() {
		return frames
	}
	out := make([]*camera.Frame, 0, len(frames))
	for i, f := range frames {
		g, n := in.FilterFrame(f, i)
		for k := 0; k < n; k++ {
			out = append(out, g)
		}
	}
	return out
}

// FilterFrame applies the schedule's frame-level impairments to one
// captured frame. index is the frame's global capture index — it seeds
// the per-frame coin, so callers that capture frame by frame (the
// adaptive session, a recycled pipeline stream) must pass the index in
// the whole run, not within the current batch, or the fault phase
// resets every time the capture restarts. It returns the frame to
// deliver (possibly a truncated shallow copy) and how many times to
// deliver it: 0 means dropped, 2 means duplicated.
func (in *Injector) FilterFrame(f *camera.Frame, index int) (*camera.Frame, int) {
	drop, dup := false, false
	for _, e := range in.cfg.Schedule.Events {
		if !boxActive(e, f.Start) {
			continue
		}
		switch e.Class {
		case FrameDrop:
			if in.frameCoin(index, 'd') < e.Magnitude {
				drop = true
			}
		case FrameDuplicate:
			if in.frameCoin(index, 'u') < e.Magnitude {
				dup = true
			}
		case FrameTruncation:
			f = truncateFrame(f, e.Magnitude)
			in.truncated.Inc()
		}
	}
	if drop {
		in.dropped.Inc()
		return f, 0
	}
	if dup {
		in.duplicated.Inc()
		return f, 2
	}
	return f, 1
}

// frameCoin returns a uniform [0,1) value that is a pure function of
// (seed, frame index, salt).
func (in *Injector) frameCoin(index int, salt byte) float64 {
	h := splitmix64(uint64(in.cfg.Seed) ^ uint64(index)*0x9e3779b97f4a7c15 ^ uint64(salt)<<56)
	return unitFloat(h)
}

// truncateFrame returns a shallow copy of f keeping only the leading
// 1−severity fraction of its rows (at least one). The pixel storage is
// shared; receivers only read frames.
func truncateFrame(f *camera.Frame, severity float64) *camera.Frame {
	keep := int(float64(f.Rows) * (1 - severity))
	if keep < 1 {
		keep = 1
	}
	if keep >= f.Rows {
		return f
	}
	t := *f
	t.Rows = keep
	t.Pix = f.Pix[:keep*f.Cols]
	return &t
}

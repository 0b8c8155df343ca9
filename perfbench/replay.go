package main

import (
	"fmt"
	"time"

	"colorbars/internal/camera"
	"colorbars/internal/csk"
	"colorbars/internal/fault"
	"colorbars/internal/modem"
	"colorbars/internal/telemetry"
)

// replayClips are decode-replay's clips: the robust, headline and
// densest paper links, a jitter-free 64-CSK link on the ideal sensor so
// the equalizer's classify path runs, and a long 16-CSK link on the
// ideal sensor, which is cheap to capture and steadies the clip set's
// SER.
func replayClips() []clipSpec {
	return []clipSpec{
		{name: "iphone5s/8csk@2kHz", order: csk.CSK8, rate: 2000, prof: camera.IPhone5S(), frames: 60},
		{name: "nexus5/16csk@4kHz", order: csk.CSK16, rate: 4000, prof: camera.Nexus5(), frames: 30},
		{name: "nexus5/32csk@4kHz", order: csk.CSK32, rate: 4000, prof: camera.Nexus5(), frames: 30},
		{name: "ideal/64csk@4kHz", order: csk.CSK64, rate: 4000, prof: camera.Ideal(), jitter: -1, frames: 150},
		{name: "ideal/16csk@4kHz", order: csk.CSK16, rate: 4000, prof: camera.Ideal(), frames: 150},
	}
}

// replayPassWall is the planned wall time of one pass over every clip
// on a 2-core Xeon; it sizes the fixed pass count from --seconds.
const replayPassWall = 0.6

// captureClips captures every spec, each from its own seed derived
// from the run's seed.
func captureClips(specs []clipSpec, seed int64, label string, lt *layerTimes) ([]*clip, error) {
	var out []*clip
	for _, s := range specs {
		c, err := captureClip(s, fault.DeriveSeed(seed, label+"/"+s.name), lt)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// replayPass decodes every clip once, each through a fresh receiver.
type replayPass struct {
	tally  *tally
	frames int
	clipMs samples
	wall   time.Duration
}

func decodePass(clips []*clip, tel *telemetry.Registry, lt *layerTimes, traced bool) (*replayPass, error) {
	p := &replayPass{tally: newTally()}
	start := time.Now()
	for _, c := range clips {
		t0 := time.Now()
		rx, err := modem.NewReceiver(c.rxConfig(tel.NewChild()))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.spec.name, err)
		}
		for _, f := range c.frames {
			bs := lt.decode(rx, f, traced)
			p.tally.addBlocks(c, bs)
			rx.Recycle(bs)
		}
		p.tally.addBlocks(c, lt.flush(rx, traced))
		p.clipMs = append(p.clipMs, ms(time.Since(t0)))
		p.frames += len(c.frames)
	}
	p.wall = time.Since(start)
	return p, nil
}

// checkPass requires pass i to have decoded exactly the blocks pass 0
// decoded.
func checkPass(i int, got, first *tally) error {
	if got.digest() != first.digest() {
		return fmt.Errorf("decode-replay: pass %d block digest %016x differs from pass 0 %016x", i, got.digest(), first.digest())
	}
	return nil
}

func runDecodeReplay(seed int64, seconds float64, trace bool) (*report, error) {
	r := &report{}
	lt := &layerTimes{}
	// Each set-up captures its own variant of every clip; passes decode
	// them all.
	var clips []*clip
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		cs, err := captureClips(replayClips(), seed, fmt.Sprintf("decode-replay/%d", i), lt)
		if err != nil {
			return nil, err
		}
		clips = append(clips, cs...)
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}
	var simSeconds float64
	for _, c := range clips {
		simSeconds += c.seconds()
	}

	passes := int(seconds/replayPassWall + 0.5)
	if passes < 2 {
		passes = 2
	}
	firstReg := telemetry.NewRegistry()
	var first *replayPass
	for i := 0; i < passes; i++ {
		traced := trace && i%2 == 0
		reg := firstReg
		if first != nil {
			reg = telemetry.NewRegistry()
		}
		p, err := decodePass(clips, reg, lt, traced)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = p
		} else if err := checkPass(i, p.tally, first.tally); err != nil && r.check == nil {
			r.check = err
		}
		lt.unit(traced, p.wall, p.frames)
		r.rates = append(r.rates, float64(p.frames)/p.wall.Seconds())
		r.sessionMs = append(r.sessionMs, p.clipMs...)
		r.attempted += p.tally.blocks
		r.failed += p.tally.corrupted
	}
	r.goodBits, r.simSeconds = first.tally.goodBits, simSeconds
	r.symErrors, r.symCompared = first.tally.symErrors, first.tally.symCompared
	if trace {
		r.layer, r.layerSamples = lt.perLayer(firstReg)
	}
	return r, nil
}

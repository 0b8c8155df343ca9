package main

import (
	"fmt"
	"time"

	"colorbars/internal/camera"
	"colorbars/internal/channel"
	"colorbars/internal/cie"
	"colorbars/internal/coding"
	"colorbars/internal/csk"
	"colorbars/internal/fault"
	"colorbars/internal/linkstats"
	"colorbars/internal/metrics"
	"colorbars/internal/modem"
	"colorbars/internal/telemetry"
)

// link-sim runs the paper's headline link (16-CSK at 4 kHz into a
// Nexus 5) as metrics.Run does, in sessions of linkSeconds simulated
// seconds, each under one occlusion burst and one white-balance drift.
const (
	linkSeconds = 4.0
	// linkSessionWall is the planned wall time of one session on a
	// 2-core Xeon; it sizes the fixed session count from --seconds, so
	// a seed always replays the same sessions.
	linkSessionWall = 2.4
	// linkWarmupSeconds is the simulated length of each set-up session.
	linkWarmupSeconds = 0.5
)

// linkSchedule blacks the link out for 51 frames, past the receiver's
// 45-frame segmentation-collapse threshold, so every session resyncs,
// decodes against stale references and recalibrates; the drift then
// tilts the constellation the fresh calibration must track.
func linkSchedule() fault.Schedule {
	return fault.Schedule{Events: []fault.Event{
		{Class: fault.Occlusion, Start: 0.7, Duration: 1.7, Magnitude: 1},
		{Class: fault.AWBDrift, Start: 2.9, Duration: 0.5, Magnitude: 0.1},
	}}
}

func linkParams(seed int64, duration float64, tel *telemetry.Registry) metrics.LinkParams {
	return metrics.LinkParams{
		Order:         csk.CSK16,
		SymbolRate:    4000,
		Profile:       camera.Nexus5(),
		WhiteFraction: whiteFraction,
		Duration:      duration,
		Seed:          seed,
		Fault:         linkSchedule(),
		Telemetry:     tel,
	}
}

// linkSession is what one link session delivered.
type linkSession struct {
	stats   modem.RxStats
	goodput float64
	tally   *tally
	frames  int
	wall    time.Duration
}

// runLinkSession drives p through the public calls metrics.Run makes
// (transmitter, channel, fault source, camera, frame filter, receiver),
// frame by frame so a traced session can time the camera apart from
// the receiver.
// Only the fields metrics.Run reads from p are honoured.
func runLinkSession(p metrics.LinkParams, lt *layerTimes, traced bool) (*linkSession, error) {
	start := time.Now()
	tel := p.Telemetry
	code, err := coding.Params{
		SymbolRate:   p.SymbolRate,
		FrameRate:    p.Profile.FrameRate,
		LossRatio:    p.Profile.LossRatio(),
		Order:        p.Order,
		DataFraction: 1 - p.WhiteFraction,
	}.LinkCode()
	if err != nil {
		return nil, err
	}
	tx, err := modem.NewTransmitter(modem.TxConfig{
		Order:            p.Order,
		SymbolRate:       p.SymbolRate,
		WhiteFraction:    p.WhiteFraction,
		Power:            1,
		Triangle:         cie.SRGBTriangle,
		CalibrationEvery: calEvery(p.Profile),
		Code:             code,
		DriveJitter:      driveJitter(p.DriveJitter),
		Seed:             p.Seed,
		Telemetry:        tel,
	})
	if err != nil {
		return nil, err
	}
	ls := linkstats.NewCollector(linkstats.Config{
		Points:        int(p.Order),
		BitsPerSymbol: p.Order.BitsPerSymbol(),
		Telemetry:     tel,
	})
	rx, err := modem.NewReceiver(modem.RxConfig{
		Order:         p.Order,
		SymbolRate:    p.SymbolRate,
		WhiteFraction: p.WhiteFraction,
		Code:          code,
		Telemetry:     tel,
		LinkStats:     ls,
	})
	if err != nil {
		return nil, err
	}
	block, msg, truth, err := linkTruth(code, p.Order, p.Seed)
	if err != nil {
		return nil, err
	}
	ls.SetTruth(truth)
	t0 := time.Now()
	w, err := tx.BuildWaveformRepeating(msg, p.Duration+0.5)
	if traced {
		lt.waveformMs = append(lt.waveformMs, ms(time.Since(t0)))
	}
	if err != nil {
		return nil, err
	}
	ch, err := channel.New(channel.DefaultConfig(), w)
	if err != nil {
		return nil, err
	}
	inj := fault.New(fault.Config{Seed: p.Seed, Schedule: p.Fault, Telemetry: tel})
	src := inj.WrapSource(ch)
	cam := camera.New(p.Profile, p.Seed)
	cam.Instrument(tel)

	c := &clip{spec: clipSpec{order: p.Order}, code: code, block: block, truth: truth}
	s := &linkSession{tally: newTally(), frames: int(p.Duration * p.Profile.FrameRate)}
	period := p.Profile.FramePeriod()
	for i := 0; i < s.frames; i++ {
		t0 := time.Now()
		f := cam.CaptureVideo(src, float64(i)*period, 1)[0]
		t1 := time.Now()
		g, copies := inj.FilterFrame(f, i)
		for k := 0; k < copies; k++ {
			bs := lt.decode(rx, g, traced)
			s.tally.addBlocks(c, bs)
			rx.Recycle(bs)
		}
		if traced {
			t2 := time.Now()
			lt.captureUs = append(lt.captureUs, us(t1.Sub(t0)))
			lt.cameraMs += ms(t1.Sub(t0))
			lt.loopMs += ms(t2.Sub(t0))
		}
	}
	s.tally.addBlocks(c, lt.flush(rx, traced))
	s.wall = time.Since(start)
	s.stats = rx.Stats()
	s.goodput = s.tally.goodBits / p.Duration
	return s, nil
}

// checkAgainstRun re-runs session p through metrics.Run and requires
// the stage-by-stage session to have reproduced its receiver counters,
// goodput and SER sample, so the per-stage numbers describe the
// computation metrics.Run times as a whole.
func checkAgainstRun(p metrics.LinkParams, s *linkSession) error {
	p.Telemetry = telemetry.NewRegistry()
	res, err := metrics.Run(p)
	if err != nil {
		return err
	}
	if res.Stats != s.stats {
		return fmt.Errorf("link-sim: stage-by-stage receiver stats differ from metrics.Run:\n  stages %v\n  run    %v", s.stats, res.Stats)
	}
	if res.GoodputBps != s.goodput {
		return fmt.Errorf("link-sim: stage-by-stage goodput %v, metrics.Run %v", s.goodput, res.GoodputBps)
	}
	if s.tally.symCompared > 0 && res.SymbolsCompared != s.tally.symCompared {
		return fmt.Errorf("link-sim: stage-by-stage SER sample %d symbols, metrics.Run %d", s.tally.symCompared, res.SymbolsCompared)
	}
	return nil
}

func linkSessions(seconds float64) int {
	if n := int(seconds/linkSessionWall + 0.5); n > 1 {
		return n
	}
	return 1
}

func runLinkSim(seed int64, seconds float64, trace bool) (*report, error) {
	r := &report{}
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		p := linkParams(fault.DeriveSeed(seed, "link-sim/warmup"), linkWarmupSeconds, telemetry.NewRegistry())
		if _, err := runLinkSession(p, &layerTimes{}, false); err != nil {
			return nil, err
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}

	reg := telemetry.NewRegistry()
	lt := &layerTimes{}
	var first *linkSession
	var firstParams metrics.LinkParams
	for i := 0; i < linkSessions(seconds); i++ {
		traced := trace && i%2 == 0
		p := linkParams(fault.DeriveSeed(seed, fmt.Sprintf("link-sim/%d", i)), linkSeconds, reg.NewChild())
		s, err := runLinkSession(p, lt, traced)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first, firstParams = s, p
		}
		lt.unit(traced, s.wall, s.frames)
		r.rates = append(r.rates, float64(s.frames)/s.wall.Seconds())
		r.sessionMs = append(r.sessionMs, ms(s.wall))
		r.goodBits += s.tally.goodBits
		r.simSeconds += linkSeconds
		r.symErrors += s.tally.symErrors
		r.symCompared += s.tally.symCompared
		r.attempted += s.tally.blocks
		r.failed += s.tally.corrupted
	}
	r.check = checkAgainstRun(firstParams, first)
	if trace {
		r.layer, r.layerSamples = lt.perLayer(reg)
	}
	return r, nil
}

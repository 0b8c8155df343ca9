package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"colorbars/internal/camera"
	"colorbars/internal/csk"
	"colorbars/internal/ingest"
	"colorbars/internal/modem"
	"colorbars/internal/packet"
	"colorbars/internal/telemetry"
)

// ingest-fleet offers device sessions on a fixed open-loop schedule to
// an in-process ingest server over loopback, through two client
// connections.
const (
	fleetShards = 2
	// fleetQueueDepth exceeds the longest clip, so a session's
	// pipelined frames never find its stream's queue full.
	fleetQueueDepth = 128
	// fleetSessionRate is the offered load in sessions per second:
	// about a third of the 26 sessions/s at which two connections
	// saturate a 2-core Xeon with this clip mix (at half, queueing
	// amplified the host's speed swings past a 0.25 spread in session
	// latency). It is fixed, not derived per run, so every run offers
	// the same load.
	fleetSessionRate = 9.0
	fleetConns       = 2
	// Sessions mix short and long clips; a short clip is the first
	// fleetShortFrames frames of its profile's long clip.
	fleetLongFrames  = 60
	fleetShortFrames = 15
	// fleetDevices devices reconnect over the run, so all but their
	// first sessions ride the calibration cache. Device d replays clip
	// d mod the number of clips (one profile and capture variant each)
	// and always connects through client connection d mod fleetConns,
	// so its sessions never overlap and each one finds exactly the
	// calibration its previous session cached.
	fleetDevices = 18
)

func fleetClips() []clipSpec {
	var out []clipSpec
	for _, p := range []camera.Profile{camera.Nexus5(), camera.IPhone5S(), camera.Ideal()} {
		out = append(out, clipSpec{name: p.Name + "/16csk@4kHz", order: csk.CSK16, rate: 4000, prof: p, frames: fleetLongFrames})
	}
	return out
}

// fleetSession is one scheduled device session and what it got back.
type fleetSession struct {
	due    time.Duration // offset from the schedule's start
	device string
	conn   int
	clip   *clip
	frames []*camera.Frame

	genLate, connWait, call, latency time.Duration
	res                              *ingest.SessionResult
	err                              error
}

func (s *fleetSession) hello() ingest.Hello {
	p := s.clip.spec.prof
	return ingest.Hello{
		DeviceID:      s.device,
		Order:         int(s.clip.spec.order),
		SymbolRate:    s.clip.spec.rate,
		WhiteFraction: whiteFraction,
		DataFraction:  1 - whiteFraction,
		FrameRate:     p.FrameRate,
		LossRatio:     p.LossRatio(),
	}
}

// newFleetSession is a session of device d replaying its clip, in full
// when long, else its first fleetShortFrames frames.
func newFleetSession(clips []*clip, d int, long bool) *fleetSession {
	c := clips[d%len(clips)]
	frames := c.frames
	if !long {
		frames = frames[:fleetShortFrames]
	}
	return &fleetSession{
		device: fmt.Sprintf("dev-%02d-%s", d, c.spec.prof.Name),
		conn:   d % fleetConns,
		clip:   c,
		frames: frames,
	}
}

// fleetSchedule is the fixed session schedule: due times at the fixed
// rate, session i from device i mod fleetDevices, so consecutive
// sessions alternate client connections. Each connection and each
// device alternate long and short clips, and a long session on one
// connection is followed by a short one on the other. The seed reaches
// the sessions through the clips alone.
func fleetSchedule(clips []*clip, seconds float64) []*fleetSession {
	out := make([]*fleetSession, int(fleetSessionRate*seconds+0.5))
	for i := range out {
		out[i] = newFleetSession(clips, i%fleetDevices, i%4 == 0 || i%4 == 3)
		out[i].due = time.Duration(float64(i) / fleetSessionRate * float64(time.Second))
	}
	return out
}

// runSchedule replays the schedule open-loop: a generator releases
// each session when due to its device's client connection, and each
// of the fleetConns clients runs its sessions in turn.
func runSchedule(addr string, sessions []*fleetSession) time.Duration {
	jobs := make([]chan *fleetSession, fleetConns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range jobs {
		jobs[c] = make(chan *fleetSession, len(sessions)) // never blocks the generator
		wg.Add(1)
		go func(jobs <-chan *fleetSession) {
			defer wg.Done()
			for s := range jobs {
				t0 := time.Now()
				s.connWait = t0.Sub(start) - s.due
				s.res, s.err = ingest.RunSession(addr, s.hello(), s.frames, s.clip.spec.prof.QuantBits)
				t1 := time.Now()
				s.call = t1.Sub(t0)
				s.latency = t1.Sub(start) - s.due
			}
		}(jobs[c])
	}
	for _, s := range sessions {
		time.Sleep(time.Until(start.Add(s.due)))
		s.genLate = time.Since(start) - s.due
		jobs[s.conn] <- s
	}
	for _, j := range jobs {
		close(j)
	}
	wg.Wait()
	return time.Since(start)
}

// serialDecode re-decodes exactly the frames the server admitted for
// one session on an in-process receiver, seeded from the WELCOME
// snapshot when the server seeded its own.
func serialDecode(s *fleetSession, tel *telemetry.Registry, lt *layerTimes, traced bool) (*tally, error) {
	rx, err := modem.NewReceiver(s.clip.rxConfig(tel.NewChild()))
	if err != nil {
		return nil, err
	}
	if s.res.CalHit() {
		snap, err := packet.UnmarshalCalSnapshot(s.res.Welcome.CalSnapshot)
		if err != nil {
			return nil, err
		}
		if err := rx.SeedCalibration(snap); err != nil {
			return nil, err
		}
	}
	t := newTally()
	for i, f := range s.frames {
		if _, shed := s.res.Shed[uint64(i)]; shed {
			continue
		}
		bs := lt.decode(rx, f, traced)
		t.addBlocks(s.clip, bs)
		rx.Recycle(bs)
	}
	t.addBlocks(s.clip, lt.flush(rx, traced))
	return t, nil
}

// checkWire scores the session's wire block stream and requires it to
// digest-equal the serial re-decode want.
func checkWire(s *fleetSession, want *tally) (*tally, error) {
	got := newTally()
	for _, b := range s.res.Blocks {
		got.add(s.clip, b.Recovered, b.Data, nil)
	}
	if got.digest() != want.digest() {
		return got, fmt.Errorf("%s: wire block digest %016x, serial re-decode %016x", s.device, got.digest(), want.digest())
	}
	return got, nil
}

func startServer(reg *telemetry.Registry) (*ingest.Server, error) {
	return ingest.New(ingest.Config{
		Addr:       "127.0.0.1:0",
		Shards:     fleetShards,
		QueueDepth: fleetQueueDepth,
		Telemetry:  reg,
	})
}

func runIngestFleet(seed int64, seconds float64, trace bool) (*report, error) {
	r := &report{}
	lt := &layerTimes{}
	// Each set-up captures its own variant of every profile's clip.
	var clips []*clip
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		cs, err := captureClips(fleetClips(), seed, fmt.Sprintf("ingest-fleet/%d", i), lt)
		if err != nil {
			return nil, err
		}
		clips = append(clips, cs...)
		srv, err := startServer(telemetry.NewRegistry())
		if err != nil {
			return nil, err
		}
		if err := srv.Close(context.Background()); err != nil {
			return nil, err
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}

	srv, err := startServer(telemetry.NewRegistry())
	if err != nil {
		return nil, err
	}
	// Warm-up, untimed: one long session per device fills the heap, the
	// pipelines and the calibration cache before the timed window.
	var warm []*fleetSession
	for d := 0; d < fleetDevices; d++ {
		warm = append(warm, newFleetSession(clips, d, true))
	}
	runSchedule(srv.Addr().String(), warm)
	for _, s := range warm {
		if s.err != nil {
			_ = srv.Close(context.Background()) // the warm-up failure is the error to report
			return nil, fmt.Errorf("ingest-fleet: warm-up session %s: %w", s.device, s.err)
		}
	}

	sessions := fleetSchedule(clips, seconds)
	window := runSchedule(srv.Addr().String(), sessions)
	if err := srv.Close(context.Background()); err != nil {
		return nil, err
	}

	// After the timed window: every session's wire block stream must
	// digest-equal a serial re-decode of exactly its admitted frames.
	verifyReg := telemetry.NewRegistry()
	var ackMs, genLate, connWait, call, serial samples
	var hits, blocks, blocksOK, shed, sent, acked int
	for i, s := range sessions {
		r.attempted += len(s.frames)
		if s.err != nil {
			r.failed += len(s.frames)
			if r.check == nil {
				r.check = fmt.Errorf("ingest-fleet: session %d (%s): %w", i, s.device, s.err)
			}
			continue
		}
		traced := trace && i%2 == 0
		t0 := time.Now()
		want, err := serialDecode(s, verifyReg, lt, traced)
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("ingest-fleet: session %d serial decode: %w", i, err)
		}
		lt.unit(traced, d, len(s.frames)-len(s.res.Shed))
		got, err := checkWire(s, want)
		if err != nil && r.check == nil {
			r.check = fmt.Errorf("ingest-fleet: session %d: %w", i, err)
		}
		r.failed += len(s.res.Shed) + got.corrupted
		acked += len(s.res.AckLatencyUs)
		r.goodBits += got.goodBits
		r.simSeconds += float64(len(s.frames)) / s.clip.spec.prof.FrameRate
		r.symErrors += want.symErrors
		r.symCompared += want.symCompared
		for _, v := range s.res.AckLatencyUs {
			ackMs = append(ackMs, float64(v)/1e3)
		}
		r.sessionMs = append(r.sessionMs, ms(s.latency))
		genLate = append(genLate, ms(s.genLate))
		connWait = append(connWait, ms(s.connWait))
		call = append(call, ms(s.call))
		if !traced { // per-call timing would inflate the serial reference
			serial = append(serial, ms(d))
		}
		if s.res.CalHit() {
			hits++
		}
		blocks += int(s.res.Stats.Blocks)
		blocksOK += int(s.res.Stats.BlocksOK)
		shed += len(s.res.Shed)
		sent += int(s.res.Stats.FramesIn)
	}
	r.rates = samples{float64(acked) / window.Seconds()}
	if trace {
		r.layer, r.layerSamples = lt.perLayer(verifyReg)
		r.layer["ingest.frame_latency_ms.p50"] = ackMs.quantile(0.50)
		r.layer["ingest.frame_latency_ms.p99"] = ackMs.quantile(0.99)
		r.layer["ingest.session_ms.p50"] = call.quantile(0.50)
		r.layer["ingest.session_ms.p90"] = call.quantile(0.90)
		r.layer["ingest.conn_wait_ms.p90"] = connWait.quantile(0.90)
		r.layer["ingest.gen_late_ms.p99"] = genLate.quantile(0.99)
		r.layer["ingest.serial_decode_ms.p50"] = serial.quantile(0.50)
		r.layer["ingest.overhead_ratio"] = ratio(call.quantile(0.50), serial.quantile(0.50))
		r.layer["ingest.cal_hit_ratio"] = ratio(float64(hits), float64(len(call)))
		r.layer["ingest.shed_ratio"] = ratio(float64(shed), float64(sent))
		r.layer["ingest.blocks_ok_ratio"] = ratio(float64(blocksOK), float64(blocks))
	}
	return r, nil
}

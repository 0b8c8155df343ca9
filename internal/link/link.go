// Package link wires one simulated ColorBars link — LED transmitter,
// optical channel, fault injector, rolling-shutter camera, receiver —
// and streams it frame by frame. It owns the decisions every driver of
// that chain shares; callers keep only their own policy. DESIGN.md §16
// lists what it owns, the values each caller passes, and why streaming
// decodes exactly what a batch capture did.
package link

import (
	"bytes"
	"context"
	"hash"
	"hash/fnv"
	"io"
	"time"

	"colorbars/internal/camera"
	"colorbars/internal/channel"
	"colorbars/internal/cie"
	"colorbars/internal/coding"
	"colorbars/internal/colorspace"
	"colorbars/internal/csk"
	"colorbars/internal/fault"
	"colorbars/internal/linkstats"
	"colorbars/internal/modem"
	"colorbars/internal/packet"
	"colorbars/internal/pipeline"
	"colorbars/internal/rs"
	"colorbars/internal/telemetry"
)

// MessageBlocks is the usual message length: one payload block sent
// four times, so every data packet carries the same codeword while the
// four-packet cycle amortizes the transmitter's de-phasing pads.
const MessageBlocks = 4

// Sizing selects the Reed-Solomon sizing rule.
type Sizing int

const (
	// PaperSizing is the paper's §5 rule (coding.Params.LinkCode).
	PaperSizing Sizing = iota
	// ErasureSizing is the erasure-aware rule (LinkCodeErasure).
	ErasureSizing
)

// Code sizes the RS code of pt with data fraction data for a camera
// with frame rate fps and inter-frame loss ratio loss.
func (s Sizing) Code(pt Point, data, fps, loss float64) (*rs.Code, error) {
	c := coding.Params{SymbolRate: pt.SymbolRate, FrameRate: fps, LossRatio: loss, Order: pt.Order, DataFraction: data}
	if s == ErasureSizing {
		return c.LinkCodeErasure()
	}
	return c.LinkCode()
}

// Point is an operating point both link ends agree on.
type Point struct {
	Order         csk.Order
	SymbolRate    float64
	WhiteFraction float64
}

// Remote is a link as its far end announces it, which is what an
// ingest HELLO carries: the operating point, the data fraction its
// code was sized for, and the camera's frame rate and loss ratio.
type Remote struct {
	Point
	DataFraction, FrameRate, LossRatio float64
}

// Receiver builds the erasure-sized receiver for r.
func (r Remote) Receiver(tel *telemetry.Registry) (*modem.Receiver, error) {
	code, err := ErasureSizing.Code(r.Point, r.DataFraction, r.FrameRate, r.LossRatio)
	if err != nil {
		return nil, err
	}
	return modem.NewReceiver(modem.RxConfig{
		Order:         r.Order,
		SymbolRate:    r.SymbolRate,
		WhiteFraction: r.WhiteFraction,
		Code:          code,
		Telemetry:     tel,
	})
}

// SeedCalibration seeds rx from a serialized calibration snapshot (a
// WELCOME's CalSnapshot, or an ingest calibration-cache entry).
func SeedCalibration(rx *modem.Receiver, raw []byte) error {
	snap, err := packet.UnmarshalCalSnapshot(raw)
	if err != nil {
		return err
	}
	return rx.SeedCalibration(snap)
}

// Digest is the decode fingerprint every driver reports: FNV-1a over
// each decoded block, in order, of a recovery-flag byte (1 recovered,
// 0 failed) and the payload bytes.
type Digest struct{ hash.Hash64 }

// NewDigest returns an empty digest.
func NewDigest() Digest { return Digest{fnv.New64a()} }

// Add folds one decoded block into the digest.
func (d Digest) Add(recovered bool, data []byte) {
	flag := []byte{0}
	if recovered {
		flag[0] = 1
	}
	d.Write(flag)
	d.Write(data)
}

// Config describes one simulated link. New derives every value it
// does not set.
type Config struct {
	// Name prefixes the spans (<Name>.build_waveform, .capture,
	// .decode) and names the pipeline stream.
	Name string
	// Point is the operating point both ends start at.
	Point
	// Profile is the receiving camera.
	Profile camera.Profile
	Sizing  Sizing
	// CalEvery is the calibration interval in data packets; zero
	// selects about five per second. An explicit interval longer than
	// the message stretches it (see Broadcast).
	CalEvery int
	// Seed drives the drive jitter, sensor noise and fault injector.
	Seed int64
	// Tx carries the transmitter's knobs: Power (zero means 1),
	// DriveJitter, and ReceiverOptimized, which applies to both ends.
	Tx modem.TxConfig
	// Rx carries the receiver's ablations: UseFactoryReferences,
	// NoErasureDecoding, DisableEqualizer, SelfHeal.
	Rx modem.RxConfig
	// Channel is the optical path; zero selects channel.DefaultConfig.
	Channel channel.Config
	// Fault, when non-empty, impairs the source and the frame stream.
	Fault fault.Schedule
	// MaxOrder sizes the link-quality collector for the densest
	// constellation Retune will reach, when denser than Order.
	MaxOrder csk.Order
	// ExactFrames captures at exact frame-period boundaries instead of
	// with the profile's frame jitter.
	ExactFrames bool
	// Workers > 0 decodes through the concurrent pipeline with that
	// many analysis workers; zero decodes serially.
	Workers int
	// Telemetry receives every stage's spans and counters; nil means a
	// private registry.
	Telemetry *telemetry.Registry
}

// Link is a built link. Broadcast starts its transmitter; Frame,
// Clip, Stream and Decode run its receive side.
type Link struct {
	Point Point // current operating point
	Code  *rs.Code
	Tx    *modem.Transmitter
	Rx    *modem.Receiver
	Stats *linkstats.Collector // the receiver's link-quality collector
	// Block is the payload block the last Broadcast repeats; Truth is
	// its on-air symbols (codeword, whitened, packed), the SER truth.
	Block []byte
	Truth []int

	cfg Config
	tel *telemetry.Registry
	cam *camera.Camera
	inj *fault.Injector
	src camera.Source
	t0  float64 // session time at which the current waveform starts
}

// New builds the link's code, transmitter, receiver and collector,
// camera, and fault injector.
func New(cfg Config) (*Link, error) {
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	if cfg.Channel == (channel.Config{}) {
		cfg.Channel = channel.DefaultConfig()
	}
	if cfg.Tx.Power == 0 {
		cfg.Tx.Power = 1
	}
	l := &Link{cfg: cfg, tel: cfg.Telemetry}
	if err := l.transmitter(cfg.Point); err != nil {
		return nil, err
	}
	l.Stats = linkstats.NewCollector(linkstats.Config{
		Points:        int(max(cfg.MaxOrder, cfg.Order)),
		BitsPerSymbol: cfg.Order.BitsPerSymbol(),
		Telemetry:     l.tel,
	})
	rc := cfg.Rx
	rc.Order, rc.SymbolRate, rc.WhiteFraction, rc.Code = cfg.Order, cfg.SymbolRate, cfg.WhiteFraction, l.Code
	rc.ReceiverOptimized, rc.Telemetry, rc.LinkStats = cfg.Tx.ReceiverOptimized, l.tel, l.Stats
	var err error
	if l.Rx, err = modem.NewReceiver(rc); err != nil {
		return nil, err
	}
	l.cam = camera.New(cfg.Profile, cfg.Seed)
	l.cam.Instrument(l.tel)
	if !cfg.Fault.Empty() {
		l.inj = fault.New(fault.Config{Seed: cfg.Seed, Schedule: cfg.Fault, Telemetry: l.tel})
	}
	return l, nil
}

// transmitter sizes the code for pt and builds a transmitter for it.
func (l *Link) transmitter(pt Point) error {
	p := l.cfg.Profile
	code, err := l.cfg.Sizing.Code(pt, 1-pt.WhiteFraction, p.FrameRate, p.LossRatio())
	if err != nil {
		return err
	}
	tc := l.cfg.Tx
	tc.Order, tc.SymbolRate, tc.WhiteFraction, tc.Code = pt.Order, pt.SymbolRate, pt.WhiteFraction, code
	tc.Triangle, tc.Seed, tc.Telemetry = cie.SRGBTriangle, l.cfg.Seed, l.tel
	// ≈5 calibration packets per second: one every F/5 data packets at
	// about one packet per frame.
	tc.CalibrationEvery = l.cfg.CalEvery
	if tc.CalibrationEvery == 0 {
		tc.CalibrationEvery = max(int(p.FrameRate/5+0.5), 1)
	}
	tx, err := modem.NewTransmitter(tc)
	if err != nil {
		return err
	}
	l.Point, l.Code, l.Tx = pt, code, tx
	return nil
}

// Retune moves both ends to pt from frame onward: a transmitter sized
// for pt replaces the old one, and the receiver flushes the packet in
// flight under the old point (returned) and retunes. The next
// Broadcast starts its waveform at that frame's session time.
func (l *Link) Retune(pt Point, frame int) ([]modem.Block, error) {
	if err := l.transmitter(pt); err != nil {
		return nil, err
	}
	l.t0 = float64(frame) * l.cfg.Profile.FramePeriod()
	return l.Rx.SetOperatingPoint(modem.OperatingPoint{
		Order: pt.Order, SymbolRate: pt.SymbolRate, WhiteFraction: pt.WhiteFraction, Code: l.Code,
	})
}

// Broadcast reads one k-byte block from payload, keeps it and its
// ground truth in Block and Truth, and plays a message of blocks copies
// of it in a loop until seconds of session time (plus 0.5 s) through
// the channel and then the fault injector, outermost so faults run on
// absolute session time.
//
// The calibration cadence restarts at every message repeat, so an
// explicit CalEvery longer than the message would silently tighten to
// one calibration per repeat: the message stretches to CalEvery blocks.
func (l *Link) Broadcast(payload io.Reader, blocks int, seconds float64) error {
	block := make([]byte, l.Code.K())
	if _, err := io.ReadFull(payload, block); err != nil {
		return err
	}
	cw, err := l.Code.Encode(append([]byte(nil), block...))
	if err != nil {
		return err
	}
	l.Block, l.Truth = block, l.Point.Order.Pack(packet.Scramble(cw))

	sp := l.tel.StartSpan(l.cfg.Name + ".build_waveform")
	w, err := l.Tx.BuildWaveformRepeating(bytes.Repeat(block, max(blocks, l.cfg.CalEvery)), seconds-l.t0+0.5)
	sp.End()
	if err != nil {
		return err
	}
	ch, err := channel.New(l.cfg.Channel, w)
	if err != nil {
		return err
	}
	l.src = ch
	if l.t0 != 0 {
		l.src = delayed{src: ch, t0: l.t0}
	}
	if l.inj != nil {
		l.src = l.inj.WrapSource(l.src)
	}
	return nil
}

// delayed starts a source at session time t0 instead of 0.
type delayed struct {
	src camera.Source
	t0  float64
}

func (s delayed) Mean(t0, t1 float64) colorspace.RGB { return s.src.Mean(t0-s.t0, t1-s.t0) }

// Frame captures frame i of the session (after Broadcast) and applies
// the frame-level faults. It returns the frame and how many times to deliver it (0
// dropped, 2 duplicated). One frame captured at i frame periods draws
// the same jitter and noise, in the same order, as frame i of a batch
// capture, so a run of Frame calls equals the batch.
func (l *Link) Frame(i int) (*camera.Frame, int) {
	sp := l.tel.StartSpan(l.cfg.Name + ".capture")
	t := float64(i) * l.cfg.Profile.FramePeriod()
	var f *camera.Frame
	if l.cfg.ExactFrames {
		f = l.cam.Capture(l.src, t)
	} else {
		f = l.cam.CaptureVideo(l.src, t, 1)[0]
	}
	sp.End()
	if l.inj == nil {
		return f, 1
	}
	return l.inj.FilterFrame(f, i)
}

// Clip captures frames [0, n) and returns every delivered frame, for
// callers that replay one capture many times.
func (l *Link) Clip(n int) []*camera.Frame {
	var frames []*camera.Frame
	for i := 0; i < n; i++ {
		f, copies := l.Frame(i)
		for ; copies > 0; copies-- {
			frames = append(frames, f)
		}
	}
	return frames
}

// Stream captures frames [0, n), decodes every delivered copy and
// drops it, so a session holds one frame at a time. Serially, each
// (when non-nil) runs after every copy with the blocks it completed,
// and Stream returns the flushed blocks; with Workers, each is not
// called and Stream returns every block in order. delivered counts the
// frames decoded.
func (l *Link) Stream(n int, each func([]modem.Block)) (rest []modem.Block, delivered int, err error) {
	rest, err = l.decode(func(deliver func(*camera.Frame) error) error {
		for i := 0; i < n; i++ {
			f, copies := l.Frame(i)
			for ; copies > 0; copies-- {
				if err := deliver(f); err != nil {
					return err
				}
				delivered++
			}
		}
		return nil
	}, each)
	return rest, delivered, err
}

// Decode decodes a captured clip and returns every block in order.
func (l *Link) Decode(frames []*camera.Frame) ([]modem.Block, error) {
	var blocks []modem.Block
	rest, err := l.decode(func(deliver func(*camera.Frame) error) error {
		for _, f := range frames {
			if err := deliver(f); err != nil {
				return err
			}
		}
		return nil
	}, func(bs []modem.Block) { blocks = append(blocks, bs...) })
	return append(blocks, rest...), err
}

// decode runs every frame produce delivers through the receiver:
// serially, calling each after every frame and returning the flushed
// blocks, or through a pipeline with a stall watchdog, returning every
// block once it drains.
func (l *Link) decode(produce func(deliver func(*camera.Frame) error) error, each func([]modem.Block)) ([]modem.Block, error) {
	if l.cfg.Workers <= 0 {
		_ = produce(func(f *camera.Frame) error { // serial delivery cannot fail
			sp := l.tel.StartSpan(l.cfg.Name + ".decode")
			blocks := l.Rx.ProcessFrame(f)
			sp.End()
			if each != nil {
				each(blocks)
			}
			return nil
		})
		return l.Rx.Flush(), nil
	}
	pl := pipeline.New(pipeline.Config{Workers: l.cfg.Workers, StallTimeout: 30 * time.Second, Telemetry: l.tel})
	s, err := pl.AddStream(l.cfg.Name, l.Rx)
	if err != nil {
		pl.Abort()
		return nil, err
	}
	collected := make(chan []modem.Block, 1)
	go func() {
		var blocks []modem.Block
		for b := range s.Blocks() {
			blocks = append(blocks, b)
		}
		collected <- blocks
	}()
	ctx := context.Background()
	if err := produce(func(f *camera.Frame) error { return s.Submit(ctx, f) }); err != nil {
		pl.Abort()
		return nil, err
	}
	if err := pl.Close(ctx); err != nil {
		return nil, err
	}
	return <-collected, nil
}

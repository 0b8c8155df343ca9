package main

import (
	"bytes"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"time"

	"colorbars/internal/camera"
	"colorbars/internal/channel"
	"colorbars/internal/cie"
	"colorbars/internal/coding"
	"colorbars/internal/csk"
	"colorbars/internal/metrics"
	"colorbars/internal/modem"
	"colorbars/internal/packet"
	"colorbars/internal/rs"
	"colorbars/internal/telemetry"
)

// whiteFraction is the white illumination fraction of every link the
// benchmark runs (the paper's default operating point).
const whiteFraction = 0.2

// clipSpec is one captured video clip: a link operating point and a
// device.
type clipSpec struct {
	name   string
	order  csk.Order
	rate   float64
	prof   camera.Profile
	jitter float64 // LED drive jitter; negative means none (metrics.LinkParams convention)
	frames int
}

// clip is a captured clip plus its ground truth. The transmitter sends
// one seeded k-byte block in every data packet, so every recovered
// block must equal it and its on-air symbols are the SER truth.
type clip struct {
	spec   clipSpec
	code   *rs.Code
	block  []byte
	truth  []int
	frames []*camera.Frame
}

func (c *clip) seconds() float64 { return float64(len(c.frames)) / c.spec.prof.FrameRate }

// rxConfig configures a receiver for the clip. tel must belong to that
// receiver alone (a child registry rolls its counters up): a receiver
// reads its own counters back.
func (c *clip) rxConfig(tel *telemetry.Registry) modem.RxConfig {
	return modem.RxConfig{
		Order:         c.spec.order,
		SymbolRate:    c.spec.rate,
		WhiteFraction: whiteFraction,
		Code:          c.code,
		Telemetry:     tel,
	}
}

// calEvery is metrics.Run's default calibration cadence: about five
// calibration packets per second at one packet per frame.
func calEvery(p camera.Profile) int {
	if n := int(p.FrameRate/5 + 0.5); n > 1 {
		return n
	}
	return 1
}

func driveJitter(j float64) float64 {
	if j < 0 {
		return 0
	}
	if j == 0 {
		return metrics.DefaultDriveJitter
	}
	return j
}

// linkTruth draws the link's repeated block from seed and returns it
// with the transmitted message and the on-air symbol ground truth.
func linkTruth(code *rs.Code, order csk.Order, seed int64) (block, msg []byte, truth []int, err error) {
	block = make([]byte, code.K())
	rand.New(rand.NewSource(seed)).Read(block)
	cw, err := code.Encode(append([]byte(nil), block...))
	if err != nil {
		return nil, nil, nil, err
	}
	return block, bytes.Repeat(block, 4), order.Pack(packet.Scramble(cw)), nil
}

// captureClip transmits and captures one clip. It uses the
// erasure-sized code the ingest service derives from a HELLO, so the
// same clips serve decode-replay and ingest-fleet.
func captureClip(spec clipSpec, seed int64, lt *layerTimes) (*clip, error) {
	code, err := coding.Params{
		SymbolRate:   spec.rate,
		FrameRate:    spec.prof.FrameRate,
		LossRatio:    spec.prof.LossRatio(),
		Order:        spec.order,
		DataFraction: 1 - whiteFraction,
	}.LinkCodeErasure()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	tx, err := modem.NewTransmitter(modem.TxConfig{
		Order:            spec.order,
		SymbolRate:       spec.rate,
		WhiteFraction:    whiteFraction,
		Power:            1,
		Triangle:         cie.SRGBTriangle,
		CalibrationEvery: calEvery(spec.prof),
		Code:             code,
		DriveJitter:      driveJitter(spec.jitter),
		Seed:             seed,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	block, msg, truth, err := linkTruth(code, spec.order, seed)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	w, err := tx.BuildWaveformRepeating(msg, float64(spec.frames)/spec.prof.FrameRate+0.5)
	lt.waveformMs = append(lt.waveformMs, ms(time.Since(t0)))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	ch, err := channel.New(channel.DefaultConfig(), w)
	if err != nil {
		return nil, err
	}
	cam := camera.New(spec.prof, seed)
	c := &clip{spec: spec, code: code, block: block, truth: truth}
	for i := 0; i < spec.frames; i++ {
		c.frames = append(c.frames, captureFrame(cam, ch, i, lt))
	}
	return c, nil
}

// captureFrame captures frame i of a video. CaptureVideo of one frame
// started at i frame periods draws the same jitter and noise, in the
// same order, as frame i of one CaptureVideo call, so a clip captured
// frame by frame equals the batch capture the programs make.
func captureFrame(cam *camera.Camera, src camera.Source, i int, lt *layerTimes) *camera.Frame {
	t0 := time.Now()
	f := cam.CaptureVideo(src, float64(i)*cam.Profile().FramePeriod(), 1)[0]
	lt.captureUs = append(lt.captureUs, us(time.Since(t0)))
	return f
}

// tally scores a decoded block stream against its clip's ground truth
// and digests it the way the ingest wire carries it.
type tally struct {
	blocks, recovered, corrupted int
	goodBits                     float64
	symErrors, symCompared       int
	h                            hash.Hash64
	flag                         [1]byte
}

func newTally() *tally { return &tally{h: fnv.New64a()} }

func (t *tally) digest() uint64 { return t.h.Sum64() }

// add scores one decoded block. A recovered block whose bytes differ
// from the transmitted block is a corruption and earns no goodput. SER
// counts, as metrics.Run does, the symbols of every recovered block.
func (t *tally) add(c *clip, recovered bool, data []byte, raw []int) {
	t.blocks++
	t.flag[0] = 0
	if recovered {
		t.flag[0] = 1
	}
	t.h.Write(t.flag[:])
	t.h.Write(data)
	if !recovered {
		return
	}
	t.recovered++
	if len(raw) == len(c.truth) {
		for i, s := range raw {
			if s < 0 {
				continue
			}
			t.symCompared++
			if s != c.truth[i] {
				t.symErrors++
			}
		}
	}
	if !bytes.Equal(data, c.block) {
		t.corrupted++
		return
	}
	t.goodBits += float64(8 * len(data))
}

func (t *tally) addBlocks(c *clip, bs []modem.Block) {
	for _, b := range bs {
		t.add(c, b.Recovered, b.Data, b.RawSymbols)
	}
}

// Package metrics runs instrumented ColorBars links and measures the
// paper's three evaluation quantities (§8): symbol error rate,
// throughput and goodput, plus the inter-frame loss ratio of Table 1.
//
// Measurement definitions follow the paper:
//
//   - SER: fraction of observed data symbols demodulated to the wrong
//     constellation index (pre-RS). Ground truth comes from
//     transmitting a single known RS codeword repeatedly.
//   - Throughput: raw received data bits per second — observed color
//     symbols (excluding white illumination symbols) × C bits, with no
//     error correction.
//   - Goodput: correctly recovered data bits per second — RS-decoded
//     blocks × k bytes.
package metrics

import (
	"fmt"
	"math/rand"

	"colorbars/internal/camera"
	"colorbars/internal/channel"
	"colorbars/internal/csk"
	"colorbars/internal/fault"
	"colorbars/internal/link"
	"colorbars/internal/linkstats"
	"colorbars/internal/modem"
	"colorbars/internal/telemetry"
)

// DefaultDriveJitter is the tri-LED driver's per-symbol intensity
// jitter used in all measured links (see led.Config.DriveJitter): the
// paper's off-the-shelf RGB LED on BeagleBone PWM pins is not an ideal
// source, and this error floor is what separates the dense 16/32-CSK
// constellations from the robust 4/8-CSK ones in Fig 9.
const DefaultDriveJitter = 0.10

// resolveJitter maps the LinkParams convention (0 = default, negative
// = none) onto the LED config.
func resolveJitter(j float64) float64 {
	switch {
	case j == 0:
		return DefaultDriveJitter
	case j < 0:
		return 0
	}
	return j
}

// LinkParams describes one measured link configuration.
type LinkParams struct {
	// Order is the CSK constellation order.
	Order csk.Order
	// SymbolRate is the LED symbol frequency in Hz.
	SymbolRate float64
	// Profile is the receiving camera device.
	Profile camera.Profile
	// WhiteFraction is the white illumination fraction (1 − α_S).
	WhiteFraction float64
	// Duration is the measured capture time in seconds.
	Duration float64
	// Seed drives all randomness (payload, sensor noise).
	Seed int64
	// Channel optionally overrides the optical path; zero value uses
	// channel.DefaultConfig().
	Channel channel.Config
	// UseFactoryRefs disables transmitter-assisted calibration
	// (ablation for §6).
	UseFactoryRefs bool
	// NoErasureDecoding disables gap-position erasure hints (ablation
	// for §5).
	NoErasureDecoding bool
	// DisableEqualizer ablates the receiver's online channel equalizer
	// (modem.RxConfig.DisableEqualizer) — the baseline for the
	// dense-constellation experiments, where the unequalized decoder
	// collapses under AWB and ambient drift.
	DisableEqualizer bool
	// CalibrationEvery overrides the calibration packet interval in
	// data packets (0 picks the default that matches the paper's ~5
	// calibration packets per second).
	CalibrationEvery int
	// ErasureSizing selects the erasure-aware RS sizing instead of the
	// paper's §5 rule (see coding.LinkCodeErasure).
	ErasureSizing bool
	// DriveJitter overrides the LED driver jitter (0 selects
	// DefaultDriveJitter; negative disables jitter).
	DriveJitter float64
	// ReceiverOptimized uses the receiver-plane constellation design
	// on both ends (the paper's §10 future work).
	ReceiverOptimized bool
	// Power scales LED radiance; 0 selects 1 (the paper's low-lumen
	// single tri-LED). Larger values model tri-LED arrays (the
	// paper's §10 future work for longer range).
	Power float64
	// Fault, when non-empty, runs the link under the deterministic
	// fault-injection layer (internal/fault): the schedule's optical
	// impairments corrupt Mean samples and the frame stream between
	// capture and decode. All fault randomness derives from Seed, so
	// the run stays reproducible.
	Fault fault.Schedule
	// SelfHeal tunes the receiver's resync/recalibration thresholds
	// (zero value = defaults, Disable turns the machinery off — the
	// ablation for the fault-recovery experiments).
	SelfHeal modem.SelfHealConfig
	// Workers decodes through the concurrent pipeline
	// (internal/pipeline) with that many analysis workers instead of
	// the serial receiver. The pipeline's Block output is byte-identical
	// to the serial path, so every measured quantity is unchanged —
	// only wall-clock decode time scales. Zero keeps the serial path.
	Workers int
	// Telemetry receives the whole run's spans and counters
	// (transmitter, camera, receiver, and the metrics.* phases). Nil
	// creates a per-run child of telemetry.Process(), so every run
	// rolls up into the process-level registry the cmd tools expose
	// via -telemetry-addr while LinkResult stays per-run exact. Attach
	// a telemetry.TraceSink to it (SetSink) to record a JSONL trace of
	// every stage span and counter increment.
	Telemetry *telemetry.Registry
}

// LinkResult holds the measured quantities.
type LinkResult struct {
	// SER is the symbol error rate over observed symbols.
	SER float64
	// SymbolsCompared is the SER sample size.
	SymbolsCompared int
	// ThroughputBps is raw received data bits per second.
	ThroughputBps float64
	// GoodputBps is recovered (post-RS) data bits per second.
	GoodputBps float64
	// SymbolsPerSecond is the rate of all received symbols (Table 1).
	SymbolsPerSecond float64
	// MeasuredLossRatio is 1 − received/transmitted symbols (Table 1).
	MeasuredLossRatio float64
	// Stats carries the receiver's raw counters.
	Stats modem.RxStats
	// Telemetry is the run's full metric snapshot: every counter of
	// Stats plus the per-stage failure counters and latency spans.
	Telemetry telemetry.Snapshot
	// Health is the end-of-run link-quality snapshot — ground-truth
	// SER/BER, classification margins, RS correction load, the scalar
	// health score (see internal/linkstats).
	Health linkstats.LinkHealth
	// LinkReport is the full link report behind Health, including the
	// margin and parity-load histograms.
	LinkReport linkstats.Report
	// EqConfidence is the receiver's end-of-run channel-equalizer
	// confidence in [0, 1]; EqActive reports whether the equalizer was
	// enabled and anchored at all (always false under
	// DisableEqualizer).
	EqConfidence float64
	EqActive     bool
}

// Run measures one link configuration end to end: it builds a
// paper-sized RS code, transmits one known codeword in a repeating
// broadcast, captures video with the device profile, decodes it frame
// by frame, and scores the result.
func Run(p LinkParams) (LinkResult, error) {
	if p.Duration <= 0 {
		return LinkResult{}, fmt.Errorf("metrics: duration %v must be positive", p.Duration)
	}
	tel := p.Telemetry
	if tel == nil {
		tel = telemetry.Process().NewChild()
	}
	run := tel.StartSpan("metrics.run")
	defer run.End()

	sizing := link.PaperSizing
	if p.ErasureSizing {
		sizing = link.ErasureSizing
	}
	l, err := link.New(link.Config{
		Name:     "metrics",
		Point:    link.Point{Order: p.Order, SymbolRate: p.SymbolRate, WhiteFraction: p.WhiteFraction},
		Profile:  p.Profile,
		Sizing:   sizing,
		CalEvery: p.CalibrationEvery,
		Seed:     p.Seed,
		Tx: modem.TxConfig{
			Power:             p.Power,
			DriveJitter:       resolveJitter(p.DriveJitter),
			ReceiverOptimized: p.ReceiverOptimized,
		},
		Rx: modem.RxConfig{
			UseFactoryReferences: p.UseFactoryRefs,
			NoErasureDecoding:    p.NoErasureDecoding,
			DisableEqualizer:     p.DisableEqualizer,
			SelfHeal:             p.SelfHeal,
		},
		Channel:   p.Channel,
		Fault:     p.Fault,
		Workers:   p.Workers,
		Telemetry: tel,
	})
	if err != nil {
		return LinkResult{}, err
	}
	// Every data packet carries the same known codeword: the SER ground
	// truth, which is also the link-quality layer's SER/BER truth.
	if err := l.Broadcast(rand.New(rand.NewSource(p.Seed)), link.MessageBlocks, p.Duration); err != nil {
		return LinkResult{}, err
	}
	l.Stats.SetTruth(l.Truth)

	var blocks []modem.Block
	rest, _, err := l.Stream(int(p.Duration*p.Profile.FrameRate), func(bs []modem.Block) {
		blocks = append(blocks, bs...)
	})
	if err != nil {
		return LinkResult{}, err
	}
	blocks = append(blocks, rest...)

	res := score(p, l.Code.K(), l.Truth, blocks, l.Rx.Stats(), l.Block)
	res.Telemetry = tel.Snapshot()
	res.Health = l.Stats.Health()
	res.LinkReport = l.Stats.Report("")
	res.EqConfidence, res.EqActive = l.Rx.EqualizerConfidence()
	return res, nil
}

// score computes the result metrics from decoded blocks.
func score(p LinkParams, k int, truth []int, blocks []modem.Block, stats modem.RxStats, msg []byte) LinkResult {
	res := LinkResult{Stats: stats}
	var symErrors, symCompared int
	var recoveredBits float64
	for _, b := range blocks {
		if len(b.RawSymbols) == len(truth) {
			e, c := serCount(b, truth)
			symErrors += e
			symCompared += c
		}
		if b.Recovered && string(b.Data) == string(msg) {
			recoveredBits += float64(8 * k)
		}
	}
	if symCompared == 0 {
		// Nothing decoded (very high error regime): fall back to the
		// alignment-certain prefixes of failed blocks so the SER is
		// measured rather than vacuously zero.
		for _, b := range blocks {
			if len(b.RawSymbols) != len(truth) {
				continue
			}
			for i, s := range b.RawSymbols {
				if s < 0 {
					break // gap reached; alignment uncertain beyond
				}
				symCompared++
				if s != truth[i] {
					symErrors++
				}
			}
		}
	}
	res.SymbolsCompared = symCompared
	if symCompared > 0 {
		res.SER = float64(symErrors) / float64(symCompared)
	}
	c := float64(p.Order.BitsPerSymbol())
	res.ThroughputBps = c * float64(stats.DataSymbolsIn) / p.Duration
	res.GoodputBps = recoveredBits / p.Duration
	res.SymbolsPerSecond = float64(stats.SymbolsIn) / p.Duration
	transmitted := p.SymbolRate * p.Duration
	if transmitted > 0 {
		res.MeasuredLossRatio = 1 - float64(stats.SymbolsIn)/transmitted
	}
	return res
}

// serCount compares one block's matched symbols against the known
// transmitted sequence, counting pre-Reed-Solomon demodulation errors.
// Only blocks whose RS decode succeeded are counted: for those the
// symbol stream's alignment is verified, so every mismatch is a true
// color-matching error (exactly what Fig 9 measures — RS corrects the
// errors afterwards, but the raw matched symbols still show them).
// Blocks whose framing failed are excluded because their symbol
// streams may be shifted by band-counting artifacts, which would
// charge framing slips as color errors.
func serCount(b modem.Block, truth []int) (errors, compared int) {
	if !b.Recovered {
		return 0, 0
	}
	for i, s := range b.RawSymbols {
		if s < 0 {
			continue
		}
		compared++
		if s != truth[i] {
			errors++
		}
	}
	return errors, compared
}

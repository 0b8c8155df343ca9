package linkadapt

import (
	"fmt"
	"math/rand"

	"colorbars/internal/camera"
	"colorbars/internal/csk"
	"colorbars/internal/fault"
	"colorbars/internal/link"
	"colorbars/internal/linkstats"
	"colorbars/internal/modem"
	"colorbars/internal/packet"
	"colorbars/internal/telemetry"
)

// SwitchLagFrames is the delay between a controller decision
// and the frame at which both ends actually retune. It models the
// in-band negotiation round trip: the transmitter announces the
// pending rung in calibration metadata (CalMeta.NextRung /
// SwitchFrame) and the receiver holds the switch until the agreed
// frame boundary.
const SwitchLagFrames = 3

// SessionParams configures one closed-loop adaptive run. Zero values
// take the defaults noted on each field; only Seed and Duration are
// required.
type SessionParams struct {
	// Seed drives every random choice: payload, sensor noise, LED
	// drive jitter, and the injector's per-frame coins.
	Seed int64
	// Duration is the capture length in seconds.
	Duration float64
	// Profile is the receiving camera (zero value selects Nexus5).
	Profile camera.Profile
	// Controller tunes the adaptation state machine (ladder, dwell,
	// hysteresis). The zero value takes the package defaults.
	Controller Config
	// Schedule is the impairment timeline (empty runs a clean link).
	Schedule fault.Schedule
	// FixedRung, when positive, pins the link to that 1-based ladder
	// rung and disables adaptation entirely — the fixed-rate baseline
	// the adapt-soak compares the closed loop against. The capture
	// loop, payload derivation, and fault phases are identical to an
	// adaptive run, so goodput differences measure only adaptation.
	FixedRung int
	// Telemetry receives the run's spans and counters; nil uses a
	// private registry.
	Telemetry *telemetry.Registry
}

// SessionResult reports one adaptive run.
type SessionResult struct {
	// Frames is the number of camera frame periods simulated.
	Frames int
	// BlocksOK and BlocksFailed count RS block outcomes across every
	// rung the session visited.
	BlocksOK, BlocksFailed int
	// GoodputBytes is the total payload recovered; GoodputBPS is the
	// same as a bit rate over the session duration.
	GoodputBytes int64
	GoodputBPS   float64
	// Digest is an FNV-1a hash over every decoded block's recovery
	// flag and payload plus every committed rung transition — the
	// run's full decode-and-trajectory fingerprint.
	Digest uint64
	// Decisions is every transition the controller committed.
	Decisions []Decision
	// RungByFrame is the rung index in effect at each frame period —
	// the trajectory the adapt-soak asserts recovery budgets against.
	RungByFrame []int
	// RecoveredAt is the frame index at which each recovered block
	// landed, in order — what the adapt-soak's survival predicate
	// (blocks during the fault window, blocks after settle) reads.
	RecoveredAt []int
	// HealthSamples is the linkstats score after each frame period.
	HealthSamples []float64
	// EqConfByFrame is the receiver's equalizer confidence after each
	// frame period (zero while unanchored or ablated) — the signal the
	// dense-rung gate reads, recorded so the adapt-soak can assert the
	// step-up onto a Dense() rung was confidence-backed.
	EqConfByFrame []float64
	// Health is the end-of-run link snapshot.
	Health linkstats.LinkHealth
	// Report is the full link-quality report behind Health, including
	// the rung-switch history ring.
	Report linkstats.Report
	// Snapshot is the run's full telemetry state.
	Snapshot telemetry.Snapshot
}

// String formats the result for log output.
func (r SessionResult) String() string {
	return fmt.Sprintf("%d frames · %d/%d blocks ok · %d transitions · %.0f bps goodput · digest %016x",
		r.Frames, r.BlocksOK, r.BlocksOK+r.BlocksFailed, len(r.Decisions), r.GoodputBPS, r.Digest)
}

// RunSession executes one closed-loop adaptive link: a transmitter and
// receiver that renegotiate their operating point frame by frame while
// the fault injector works the channel.
//
// The loop captures one frame per period (at exact period boundaries —
// frame jitter is a batch-capture feature), filters it through the
// frame-level fault classes using the global frame index, decodes, and
// feeds the linkstats health snapshot to the adaptation controller.
// When the controller commits a transition, the switch is applied
// SwitchLagFrames later at a packet boundary: the receiver flushes and
// retunes via SetOperatingPoint, and the transmitter rebuilds its
// waveform at the new rung with the rung/epoch announced in
// calibration metadata (omitted on rungs whose visible window cannot
// fit the metadata region — see packet.Config.MetaRegionSlots).
//
// Everything is a pure function of SessionParams: two runs with equal
// params produce byte-identical digests and rung trajectories, which
// the adapt-soak asserts.
func RunSession(p SessionParams) (SessionResult, error) {
	if p.Duration <= 0 {
		return SessionResult{}, fmt.Errorf("linkadapt: duration %v must be positive", p.Duration)
	}
	if p.Profile.FrameRate == 0 {
		p.Profile = camera.Nexus5()
	}
	tel := p.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	run := tel.StartSpan("linkadapt.session")
	defer run.End()

	adapt := p.FixedRung <= 0
	if !adapt {
		p.Controller.StartRung = p.FixedRung
	}
	ctl, err := NewController(p.Controller)
	if err != nil {
		return SessionResult{}, err
	}
	if !adapt && p.FixedRung > len(ctl.Ladder()) {
		return SessionResult{}, fmt.Errorf("linkadapt: fixed rung %d outside ladder of %d", p.FixedRung, len(ctl.Ladder()))
	}
	fps := p.Profile.FrameRate
	loss := p.Profile.LossRatio()

	// One collector spans every rung: margins histogram per point
	// index, so size it for the densest constellation on the ladder.
	var maxOrder csk.Order
	for _, r := range ctl.Ladder() {
		maxOrder = max(maxOrder, r.Order)
	}
	rung := ctl.CurrentRung()
	l, err := link.New(link.Config{
		Name:        "linkadapt",
		Point:       rung.Point(),
		Profile:     p.Profile,
		Sizing:      link.ErasureSizing,
		Seed:        p.Seed,
		Fault:       p.Schedule,
		MaxOrder:    maxOrder,
		ExactFrames: true,
		Telemetry:   tel,
	})
	if err != nil {
		return SessionResult{}, err
	}
	payload := rand.New(rand.NewSource(fault.DeriveSeed(p.Seed, "linkadapt.payload")))

	// broadcast starts the current epoch's waveform: the rung and epoch
	// are announced in calibration metadata only when the
	// metadata-bearing calibration packet still fits one frame's
	// visible symbol window (a region split by the inter-frame gap can
	// never decode), then a fresh payload block plays from the epoch
	// start to the end of the session.
	broadcast := func() error {
		meta := packet.EncodeCalMeta(packet.CalMeta{
			Rung: ctl.Rung(), HasRung: true,
			Epoch: ctl.Epoch(), HasEpoch: true,
		})
		cal, err := l.Tx.PacketConfig().BuildCalibrationMeta(l.Tx.Constellation().CalibrationOrder(), meta)
		if err != nil {
			return err
		}
		if float64(len(cal)) <= l.Point.SymbolRate/fps*(1-loss)-2 {
			l.Tx.SetCalMeta(meta)
		}
		return l.Broadcast(payload, link.MessageBlocks, p.Duration)
	}

	l.Stats.NoteRung(ctl.Rung(), rung.Name)
	if err := broadcast(); err != nil {
		return SessionResult{}, err
	}

	nFrames := int(p.Duration * fps)
	res := SessionResult{
		Frames:        nFrames,
		RungByFrame:   make([]int, 0, nFrames),
		HealthSamples: make([]float64, 0, nFrames),
	}
	digest := link.NewDigest()
	score := func(blocks []modem.Block, frame int) {
		for _, b := range blocks {
			if b.Recovered {
				res.BlocksOK++
				res.GoodputBytes += int64(len(b.Data))
				res.RecoveredAt = append(res.RecoveredAt, frame)
			} else {
				res.BlocksFailed++
			}
			digest.Add(b.Recovered, b.Data)
		}
	}

	switchAt := -1 // frame at which the pending decision retunes the link
	var pending Decision
	for i := 0; i < nFrames; i++ {
		if i == switchAt {
			to := ctl.Ladder()[pending.To]
			flushed, err := l.Retune(to.Point(), i)
			if err != nil {
				return SessionResult{}, err
			}
			score(flushed, i)
			if err := broadcast(); err != nil {
				return SessionResult{}, err
			}
			l.Stats.NoteRung(pending.To, to.Name)
			digest.Write([]byte{0xA5, byte(pending.From), byte(pending.To)})
			switchAt = -1
		}

		f, copies := l.Frame(i)
		for k := 0; k < copies; k++ {
			score(l.Rx.ProcessFrame(f), i)
		}

		h := l.Stats.Health()
		eqConf, hasEq := l.Rx.EqualizerConfidence()
		res.RungByFrame = append(res.RungByFrame, ctl.Rung())
		res.HealthSamples = append(res.HealthSamples, h.Score)
		res.EqConfByFrame = append(res.EqConfByFrame, eqConf)

		if !adapt {
			continue
		}
		d, ok := ctl.Observe(Signals{
			Score:          h.Score,
			Calibrated:     h.Calibrated,
			Margin:         h.WindowMargin,
			HasMargin:      h.WindowMargin > 0,
			Resyncs:        h.Resyncs,
			DegradedBlocks: h.DegradedBlocks,
			RSLoad:         h.RSLoadMean,
			EqConfidence:   eqConf,
			HasEqConf:      hasEq,
		})
		if ok {
			res.Decisions = append(res.Decisions, d)
			pending, switchAt = d, i+SwitchLagFrames
		}
	}
	score(l.Rx.Flush(), nFrames-1)

	res.GoodputBPS = float64(res.GoodputBytes) * 8 / p.Duration
	res.Digest = digest.Sum64()
	res.Health = l.Stats.Health()
	res.Report = l.Stats.Report("adaptive")
	res.Snapshot = tel.Snapshot()
	return res, nil
}

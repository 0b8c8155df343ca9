// Package linkadapt closes the loop from link observability to
// modulation: a deterministic state machine that consumes the live
// receiver signals the telemetry/linkstats/fault layers already
// produce (LinkHealth score, CIEDE2000 classification margins, resync
// and degraded-block counters, RS correction load) and steps the
// operating point up and down a committed modulation ladder.
//
// The design follows the rate-adaptation literature the README cites
// ("Symbol Rate Maximization in Rolling-Shutter OCC": usable rate is a
// moving target set by live channel conditions; "Efficient
// demodulation scheme for multilevel modulation based OCC": match
// constellation density to measured distance margins) rather than the
// source paper, which fixes the operating point per run and therefore
// cliffs when the channel degrades past the densest constellation's
// margin.
//
// Three rules keep the machine stable and reproducible:
//
//   - Hysteresis: the score that triggers a step-down (DownScore) sits
//     well below the score required to arm a step-up (UpScore), so a
//     link hovering at one quality level cannot oscillate.
//   - Dwell: after any transition the controller holds the new rung
//     for at least DwellFrames frames, no matter what the signals do —
//     at most one transition per dwell window, by construction.
//   - Probing: upgrades are only ever attempted after ProbeFrames
//     consecutive healthy frames, and a probe that fails simply
//     triggers the ordinary step-down path after its dwell expires.
//
// The controller is a pure function of its observed signal sequence:
// no clocks, no randomness. Identical signals produce identical
// transitions, which is what lets the chaos soak assert byte-identical
// adaptive runs across seeds.
package linkadapt

import (
	"fmt"

	"colorbars/internal/csk"
	"colorbars/internal/led"
	"colorbars/internal/link"
)

// Rung is one committed operating point on the modulation ladder.
// Both ends agree on the ladder out of band (it ships with the link
// profile); in-band calibration metadata carries only rung indexes.
type Rung struct {
	Name          string
	Order         csk.Order
	SymbolRate    float64
	WhiteFraction float64
}

func (r Rung) String() string { return r.Name }

// Point returns the rung's operating point.
func (r Rung) Point() link.Point {
	return link.Point{Order: r.Order, SymbolRate: r.SymbolRate, WhiteFraction: r.WhiteFraction}
}

// DefaultLadder is the committed three-rung ladder the cmd tools and
// the chaos soak use: a robust 4-CSK floor that survives impairments
// which collapse denser constellations, the paper's workhorse 8-CSK
// midpoint, and a dense 16-CSK top rung. The floor runs at 1.5 kHz,
// not lower: 4-CSK needs 8 size-field symbols, and below ~1.5 kHz the
// white-separated size field plus the packet prefix outgrows the
// rolling-shutter visibility window of a 30 fps camera, so packets
// stop parsing at all — a slower rung would be less robust, not more.
func DefaultLadder() []Rung {
	return []Rung{
		{Name: "4csk@1.5kHz", Order: csk.CSK4, SymbolRate: 1500, WhiteFraction: 0.2},
		{Name: "8csk@2kHz", Order: csk.CSK8, SymbolRate: 2000, WhiteFraction: 0.2},
		{Name: "16csk@4kHz", Order: csk.CSK16, SymbolRate: 4000, WhiteFraction: 0.2},
	}
}

// DenseLadder is DefaultLadder extended with a dense 64-CSK top rung
// (24 kbps raw, 1.5× the 16-CSK rung). The rung only works when the
// receiver's channel equalizer holds the constellation open, so the
// controller gates stepping onto any Dense() rung on the equalizer
// confidence signal (Config.EqConfFloor) and steps off it when that
// confidence collapses. 4 kHz is the fastest rate at which a 64-color
// calibration body still fits inside one 30 fps frame; 256-CSK has no
// ladder rung at all — its calibration cannot fit a frame under the
// LED controller's 4.5 kHz cap, so it remains a seeded-calibration
// (simulation and cache-warm) configuration.
func DenseLadder() []Rung {
	return append(DefaultLadder(),
		Rung{Name: "64csk@4kHz", Order: csk.CSK64, SymbolRate: 4000, WhiteFraction: 0.2})
}

// ValidateLadder checks a ladder is usable: at least two rungs, every
// rung a valid operating point, and strictly increasing raw bit rate
// (the ladder's whole point is that up means faster).
func ValidateLadder(ladder []Rung) error {
	if len(ladder) < 2 {
		return fmt.Errorf("linkadapt: ladder needs at least 2 rungs, got %d", len(ladder))
	}
	prev := 0.0
	for i, r := range ladder {
		if !r.Order.Valid() {
			return fmt.Errorf("linkadapt: rung %d: invalid order %d", i, int(r.Order))
		}
		if r.SymbolRate <= 0 || r.SymbolRate > led.MaxSymbolRate {
			return fmt.Errorf("linkadapt: rung %d: symbol rate %v outside (0, %v]",
				i, r.SymbolRate, led.MaxSymbolRate)
		}
		if r.WhiteFraction < 0 || r.WhiteFraction >= 1 {
			return fmt.Errorf("linkadapt: rung %d: white fraction %v outside [0, 1)", i, r.WhiteFraction)
		}
		rate := r.SymbolRate * float64(r.Order.BitsPerSymbol())
		if rate <= prev {
			return fmt.Errorf("linkadapt: rung %d: raw bit rate %v not above rung %d's %v",
				i, rate, i-1, prev)
		}
		prev = rate
	}
	return nil
}

// Signals is one frame's worth of receiver observations, sampled after
// the frame is processed. Counter fields are cumulative (the
// controller differentiates them itself).
type Signals struct {
	// Score is the linkstats LinkHealth score in [0, 1].
	Score float64
	// Calibrated reports whether the receiver has ever applied a
	// calibration (LinkHealth.Calibrated). Before that the score reads
	// a flat "acquiring" value that must trigger neither direction.
	Calibrated bool
	// Margin is the windowed mean CIEDE2000 classification margin;
	// HasMargin distinguishes a measured 0 from "no symbols yet".
	Margin    float64
	HasMargin bool
	// Resyncs and DegradedBlocks are the receiver's cumulative
	// self-heal counters (LinkHealth.Resyncs / .DegradedBlocks).
	Resyncs        int64
	DegradedBlocks int64
	// RSLoad is the mean fraction of RS correction capacity consumed
	// by recent blocks (Report.RSLoad).
	RSLoad float64
	// EqConfidence is the receiver's channel-equalizer confidence in
	// [0, 1] (modem.Receiver.EqualizerConfidence); HasEqConf reports
	// whether the equalizer is active at all. Dense() rungs are only
	// stepped onto — and stayed on — while the confidence clears
	// Config.EqConfFloor; non-dense rungs ignore the signal entirely,
	// so ladders without dense rungs behave exactly as before.
	EqConfidence float64
	HasEqConf    bool
}

// Config tunes the controller. Zero values take the defaults below.
type Config struct {
	// Ladder is the committed rung table; nil takes DefaultLadder.
	Ladder []Rung
	// StartRung is the initial rung as a 1-based ladder position
	// (1 = bottom rung). Zero — the zero value — means the top rung:
	// links start optimistic and step down on evidence.
	StartRung int
	// DwellFrames is the minimum number of frames between transitions.
	DwellFrames int
	// ProbeFrames is the healthy-frame streak required to arm an
	// upgrade probe.
	ProbeFrames int
	// DownScore / UpScore are the hysteresis thresholds: score below
	// DownScore steps down, score at or above UpScore counts toward
	// the healthy streak. UpScore must exceed DownScore.
	DownScore float64
	UpScore   float64
	// MarginFloor steps down when the windowed mean classification
	// margin falls under it (the earliest distress signal: margins
	// collapse before blocks start failing).
	MarginFloor float64
	// RSLoadCeiling steps down when the mean RS correction load
	// exceeds it — the code is spending most of its parity budget, so
	// the next impairment uptick turns into block loss.
	RSLoadCeiling float64
	// EqConfFloor gates Dense() constellation rungs on the equalizer
	// confidence signal: a probe onto a dense rung only arms while
	// Signals.EqConfidence is at or above the floor, and a dense rung
	// whose confidence falls below it steps down (ReasonEqConf). Zero
	// takes DefaultEqConfFloor.
	EqConfFloor float64
}

// Defaults, tuned against the fault-soak harness: the dwell covers the
// linkstats window refill after a transition flushes the channel
// state; the probe streak is long enough that a link still wobbling
// from an impairment cannot arm an upgrade; and two probe climbs plus
// their dwells fit the soak's 90-frame top-rung recovery budget.
const (
	DefaultDwellFrames   = 15
	DefaultProbeFrames   = 24
	DefaultDownScore     = 0.35
	DefaultUpScore       = 0.62
	DefaultMarginFloor   = 2.0
	DefaultRSLoadCeiling = 0.9
	// DefaultEqConfFloor is tuned against the dense-rung soak: a clean
	// equalized 64-CSK link holds confidence well above it, while AWB
	// drift or an ambient ramp drags confidence through it within a
	// couple of dwell windows.
	DefaultEqConfFloor = 0.55
	// EqConfDebounceFrames is how many consecutive below-floor frames
	// an armed dense rung tolerates before ReasonEqConf steps it down.
	// The confidence EMA can be dragged under the floor for a single
	// frame by one batch of slim-margin symbols on an otherwise healthy
	// link; a real drift collapse holds it down for many frames.
	EqConfDebounceFrames = 3
)

func (c Config) withDefaults() Config {
	if c.Ladder == nil {
		c.Ladder = DefaultLadder()
	}
	if c.StartRung <= 0 || c.StartRung > len(c.Ladder) {
		c.StartRung = len(c.Ladder)
	}
	if c.DwellFrames == 0 {
		c.DwellFrames = DefaultDwellFrames
	}
	if c.ProbeFrames == 0 {
		c.ProbeFrames = DefaultProbeFrames
	}
	if c.DownScore == 0 {
		c.DownScore = DefaultDownScore
	}
	if c.UpScore == 0 {
		c.UpScore = DefaultUpScore
	}
	if c.MarginFloor == 0 {
		c.MarginFloor = DefaultMarginFloor
	}
	if c.RSLoadCeiling == 0 {
		c.RSLoadCeiling = DefaultRSLoadCeiling
	}
	if c.EqConfFloor == 0 {
		c.EqConfFloor = DefaultEqConfFloor
	}
	return c
}

// Transition reason strings, reported in Decision.Reason and the rung
// history.
const (
	ReasonResync    = "resync"
	ReasonLowScore  = "low-score"
	ReasonLowMargin = "low-margin"
	ReasonRSLoad    = "rs-load"
	ReasonDegraded  = "degraded-blocks"
	ReasonProbe     = "probe-up"
	ReasonEqConf    = "eq-confidence"
)

// Decision is one committed ladder transition.
type Decision struct {
	Frame  int64  `json:"frame"`
	From   int    `json:"from"`
	To     int    `json:"to"`
	Reason string `json:"reason"`
}

func (d Decision) String() string {
	return fmt.Sprintf("frame %d: rung %d -> %d (%s)", d.Frame, d.From, d.To, d.Reason)
}

// HistorySize is the depth of the controller's rung-change ring
// buffer, surfaced in link reports and /debug/link.
const HistorySize = 16

// Controller is the deterministic link-adaptation state machine. Not
// safe for concurrent use; drive it from the receiver's frame loop.
type Controller struct {
	cfg   Config
	rung  int
	epoch int
	frame int64
	// lastTransition is the frame of the most recent transition; the
	// dwell clock measures from it.
	lastTransition int64
	healthyStreak  int
	lastResyncs    int64
	lastDegraded   int64
	seeded         bool
	// eqConfArmed latches once the equalizer confidence crosses the
	// floor on the current rung; only an armed gate can read a
	// below-floor confidence as collapse. A retune resets the receiver's
	// equalizer, and re-anchoring on the new operating point can take
	// longer than a dwell — judging that fresh, still-climbing
	// confidence would step every dense probe straight back down.
	eqConfArmed bool
	// eqLowStreak counts consecutive armed below-floor frames; the
	// EqConfDebounceFrames threshold filters single-frame EMA dips.
	eqLowStreak int

	history [HistorySize]Decision
	histN   int // total decisions ever; ring position is histN % HistorySize
}

// NewController builds a controller; it returns an error only for an
// unusable ladder or inverted hysteresis thresholds.
func NewController(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if err := ValidateLadder(cfg.Ladder); err != nil {
		return nil, err
	}
	if cfg.UpScore <= cfg.DownScore {
		return nil, fmt.Errorf("linkadapt: UpScore %v must exceed DownScore %v (hysteresis)",
			cfg.UpScore, cfg.DownScore)
	}
	return &Controller{cfg: cfg, rung: cfg.StartRung - 1, lastTransition: -int64(cfg.DwellFrames)}, nil
}

// Rung returns the current rung index.
func (c *Controller) Rung() int { return c.rung }

// CurrentRung returns the current rung's table entry.
func (c *Controller) CurrentRung() Rung { return c.cfg.Ladder[c.rung] }

// Ladder returns the committed rung table (callers must not mutate).
func (c *Controller) Ladder() []Rung { return c.cfg.Ladder }

// Epoch counts committed transitions; it is announced in calibration
// metadata so a receiver can tell a re-announcement from a new epoch.
func (c *Controller) Epoch() int { return c.epoch }

// Frame returns how many signals the controller has observed.
func (c *Controller) Frame() int64 { return c.frame }

// Observe feeds one frame's signals. When the machine commits a
// transition it returns (decision, true); the caller is responsible
// for actually retuning the link (and for telling the far end).
func (c *Controller) Observe(s Signals) (Decision, bool) {
	c.frame++
	f := c.frame

	// Differentiate the cumulative self-heal counters. The first
	// observation only seeds the baselines — a controller attached to
	// a long-running receiver must not read history as fresh distress.
	resyncDelta, degradedDelta := int64(0), int64(0)
	if c.seeded {
		resyncDelta = s.Resyncs - c.lastResyncs
		degradedDelta = s.DegradedBlocks - c.lastDegraded
	}
	c.seeded = true
	c.lastResyncs = s.Resyncs
	c.lastDegraded = s.DegradedBlocks

	// Arm-then-trigger bookkeeping for the dense-rung confidence gate,
	// tracked through dwell windows so a collapse mid-dwell fires the
	// moment the dwell expires.
	if s.HasEqConf {
		if s.EqConfidence >= c.cfg.EqConfFloor {
			c.eqConfArmed = true
			c.eqLowStreak = 0
		} else if c.eqConfArmed {
			c.eqLowStreak++
		}
	}

	healthy := s.Calibrated && s.Score >= c.cfg.UpScore &&
		resyncDelta == 0 && degradedDelta == 0 &&
		s.RSLoad <= c.cfg.RSLoadCeiling
	if healthy {
		c.healthyStreak++
	} else {
		c.healthyStreak = 0
	}

	// The dwell gate: nothing moves inside a dwell window. This single
	// check is what bounds the machine to one transition per window.
	if f-c.lastTransition < int64(c.cfg.DwellFrames) {
		return Decision{}, false
	}

	// Step-down triggers, most specific first. Distress before the
	// first calibration is ignored: an acquiring link reports a flat
	// placeholder score, not evidence about this rung.
	if c.rung > 0 && s.Calibrated {
		reason := ""
		switch {
		case resyncDelta > 0:
			reason = ReasonResync
		case degradedDelta > 0:
			reason = ReasonDegraded
		case s.Score < c.cfg.DownScore:
			reason = ReasonLowScore
		case s.HasMargin && s.Margin < c.cfg.MarginFloor:
			reason = ReasonLowMargin
		case s.RSLoad > c.cfg.RSLoadCeiling:
			reason = ReasonRSLoad
		case c.cfg.Ladder[c.rung].Order.Dense() && c.eqConfArmed &&
			c.eqLowStreak >= EqConfDebounceFrames:
			// A dense rung is only decodable while the equalizer holds
			// the constellation open; confidence that crossed the floor
			// and then collapsed back under it is distress even when the
			// score has not caught up.
			reason = ReasonEqConf
		}
		if reason != "" {
			return c.transition(f, c.rung-1, reason), true
		}
	}

	// Probe upward after a sustained healthy streak. A probe onto a
	// Dense() rung additionally requires equalizer confidence over the
	// floor right now; the streak keeps accumulating while it waits, so
	// the climb resumes the moment the equalizer warms up.
	if c.rung < len(c.cfg.Ladder)-1 && c.healthyStreak >= c.cfg.ProbeFrames {
		if next := c.cfg.Ladder[c.rung+1]; !next.Order.Dense() || c.eqConfOK(s) {
			return c.transition(f, c.rung+1, ReasonProbe), true
		}
	}
	return Decision{}, false
}

// eqConfOK reports whether the equalizer-confidence signal clears the
// dense-rung floor.
func (c *Controller) eqConfOK(s Signals) bool {
	return s.HasEqConf && s.EqConfidence >= c.cfg.EqConfFloor
}

func (c *Controller) transition(frame int64, to int, reason string) Decision {
	d := Decision{Frame: frame, From: c.rung, To: to, Reason: reason}
	c.rung = to
	c.epoch++
	c.lastTransition = frame
	c.healthyStreak = 0
	// The retune hands the gate a fresh equalizer: disarm until its
	// confidence first crosses the floor on the new rung.
	c.eqConfArmed = false
	c.eqLowStreak = 0
	c.history[c.histN%HistorySize] = d
	c.histN++
	return d
}

// History returns the most recent transitions, oldest first (at most
// HistorySize).
func (c *Controller) History() []Decision {
	n := c.histN
	if n > HistorySize {
		n = HistorySize
	}
	out := make([]Decision, 0, n)
	for i := c.histN - n; i < c.histN; i++ {
		out = append(out, c.history[i%HistorySize])
	}
	return out
}

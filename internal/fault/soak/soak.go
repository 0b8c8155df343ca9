// Package soak runs the full ColorBars link — transmitter, optical
// channel, fault injector, rolling-shutter camera, receiver — under
// randomized-but-seeded impairment schedules and reports what the
// self-healing receiver did about them.
//
// The harness is the chaos counterpart of internal/metrics: where
// metrics measures the paper's steady-state quantities (SER,
// throughput, goodput), soak measures survival — does the link decode
// again after an occlusion burst, an AWB step, a dropped-frame run —
// and how long re-acquisition takes. Everything is a pure function of
// Params.Seed: two runs with equal Params produce byte-identical
// decode output (Result.Digest), which the soak tests assert.
package soak

import (
	"bytes"
	"fmt"
	"math/rand"

	"colorbars/internal/camera"
	"colorbars/internal/csk"
	"colorbars/internal/fault"
	"colorbars/internal/link"
	"colorbars/internal/linkstats"
	"colorbars/internal/modem"
	"colorbars/internal/telemetry"
)

// Params configures one soak run. Zero values select the defaults
// noted on each field; only Seed and Duration are required.
type Params struct {
	// Seed drives every random choice in the run: payload, sensor
	// noise, the impairment schedule, and the impairments themselves.
	Seed int64
	// Duration is the capture length in seconds.
	Duration float64
	// Order is the CSK constellation (zero selects CSK8).
	Order csk.Order
	// SymbolRate is the LED symbol frequency in Hz (zero selects 2000).
	SymbolRate float64
	// Profile is the receiving camera (zero value selects Nexus5).
	Profile camera.Profile
	// Classes restricts the impairment schedule to these fault
	// classes; nil draws one event of every class.
	Classes []fault.Class
	// Schedule overrides the derived random schedule entirely (for
	// replaying a specific impairment sequence). Empty means derive
	// from Seed.
	Schedule fault.Schedule
	// SelfHeal tunes the receiver's recovery thresholds (zero value =
	// defaults; Disable runs the ablation).
	SelfHeal modem.SelfHealConfig
	// DisableEqualizer ablates the receiver's online channel equalizer
	// — the baseline the dense-constellation soak gate compares
	// against, where 64-CSK collapses under held AWB/ambient drift.
	DisableEqualizer bool
	// CalEvery overrides the calibration packet interval in data
	// packets (0 picks the paper's ~5 calibration packets per second).
	// The dense soak gate stretches it so drift tracking between
	// calibrations — the equalizer's job — decides survival.
	CalEvery int
	// Workers > 0 decodes through the concurrent pipeline with that
	// many analysis workers and an armed stall watchdog; zero uses the
	// serial receiver (which also enables recovery-latency tracking).
	Workers int
	// Telemetry receives the run's spans and counters; nil uses a
	// private registry (returned in Result.Snapshot either way).
	Telemetry *telemetry.Registry
}

// Result reports one soak run.
type Result struct {
	// Schedule is the impairment schedule the run executed.
	Schedule fault.Schedule
	// Frames is the number of frames decoded (after drop/duplicate
	// filtering).
	Frames int
	// BlocksOK and BlocksFailed count RS block outcomes.
	BlocksOK, BlocksFailed int
	// Resyncs, StaleCalibrations and DegradedBlocks mirror the
	// receiver's recovery counters.
	Resyncs, StaleCalibrations, DegradedBlocks int
	// WorstRecoveryFrames is the largest gap, in frames, between an
	// impairment's settle time and the next successfully recovered
	// block (serial runs only; -1 when no impairment settled before
	// the capture ended, or when Workers > 0).
	WorstRecoveryFrames int
	// Unrecovered counts impairments after which no block ever
	// recovered before the capture ended.
	Unrecovered int
	// Digest is an FNV-1a hash over every decoded block's recovery
	// flag and payload bytes, in order — the run's decode fingerprint.
	Digest uint64
	// Snapshot is the run's full telemetry state, including the
	// fault.* injection counters and rx.* recovery counters.
	Snapshot telemetry.Snapshot
	// Health is the end-of-run link-quality snapshot.
	Health linkstats.LinkHealth
	// HealthSamples is the health score after each decoded frame
	// (serial runs only; nil when Workers > 0) — the trajectory the
	// per-class soak tests assert dips and recoveries against.
	HealthSamples []float64
	// MinHealth is the lowest sampled score (1 when no samples).
	MinHealth float64
}

// String formats the result for log output.
func (r Result) String() string {
	return fmt.Sprintf("%d frames · %d/%d blocks ok · %d resyncs · %d stale cal · %d degraded · worst recovery %d frames · digest %016x",
		r.Frames, r.BlocksOK, r.BlocksOK+r.BlocksFailed, r.Resyncs, r.StaleCalibrations, r.DegradedBlocks, r.WorstRecoveryFrames, r.Digest)
}

// Run executes one soak: it builds the link through internal/link,
// injects the impairment schedule, decodes, and scores recovery. The
// link is not the one internal/metrics measures: it uses erasure-aware
// RS sizing, an ideal (jitter-free) LED driver and a payload drawn
// from a soak-derived seed (DESIGN.md §16).
func Run(p Params) (Result, error) {
	if p.Duration <= 0 {
		return Result{}, fmt.Errorf("soak: duration %v must be positive", p.Duration)
	}
	if p.Order == 0 {
		p.Order = csk.CSK8
	}
	if p.SymbolRate == 0 {
		p.SymbolRate = 2000
	}
	if p.Profile.FrameRate == 0 {
		p.Profile = camera.Nexus5()
	}
	tel := p.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	run := tel.StartSpan("soak.run")
	defer run.End()

	schedule := p.Schedule
	if schedule.Empty() {
		schedule = fault.RandomSchedule(fault.DeriveSeed(p.Seed, "soak.schedule"), p.Duration, p.Classes...)
	}

	l, err := link.New(link.Config{
		Name:      "soak",
		Point:     link.Point{Order: p.Order, SymbolRate: p.SymbolRate, WhiteFraction: 0.2},
		Profile:   p.Profile,
		Sizing:    link.ErasureSizing,
		CalEvery:  p.CalEvery,
		Seed:      p.Seed,
		Rx:        modem.RxConfig{SelfHeal: p.SelfHeal, DisableEqualizer: p.DisableEqualizer},
		Fault:     schedule,
		Workers:   p.Workers,
		Telemetry: tel,
	})
	if err != nil {
		return Result{}, err
	}
	payload := rand.New(rand.NewSource(fault.DeriveSeed(p.Seed, "soak.payload")))
	if err := l.Broadcast(payload, link.MessageBlocks, p.Duration); err != nil {
		return Result{}, err
	}

	res := Result{Schedule: schedule, WorstRecoveryFrames: -1}
	digest := link.NewDigest()
	var recoveredAt []int // delivered-frame index of every recovered block
	score := func(blocks []modem.Block, frame int) {
		for _, b := range blocks {
			if b.Recovered {
				res.BlocksOK++
				recoveredAt = append(recoveredAt, frame)
			} else {
				res.BlocksFailed++
			}
			digest.Add(b.Recovered, b.Data)
		}
	}
	// Serially, every delivered frame is scored and health-sampled as
	// it decodes; the pipeline hands back the whole block stream.
	res.MinHealth = 1
	rest, frames, err := l.Stream(int(p.Duration*p.Profile.FrameRate), func(blocks []modem.Block) {
		score(blocks, len(res.HealthSamples))
		h := l.Stats.Health().Score
		res.HealthSamples = append(res.HealthSamples, h)
		res.MinHealth = min(res.MinHealth, h)
	})
	if err != nil {
		return Result{}, err
	}
	score(rest, frames-1)
	res.Frames = frames
	if p.Workers == 0 {
		res.WorstRecoveryFrames, res.Unrecovered = recoveryLatency(schedule, p.Profile.FrameRate, frames, recoveredAt)
	}
	res.Health = l.Stats.Health()

	st := l.Rx.Stats()
	res.Resyncs = st.Resyncs
	res.StaleCalibrations = st.StaleCalibrations
	res.DegradedBlocks = st.DegradedBlocks
	res.Digest = digest.Sum64()
	res.Snapshot = tel.Snapshot()
	return res, nil
}

// AnalyzeHealth scans a run's per-frame health samples around one
// impairment: min is the lowest score from eventFrame on (with its
// frame index), and recoverFrame is the first frame at or after
// settleFrame where the score has climbed back to recoverAbove — the
// health-signal analogue of recoveryLatency's next-recovered-block
// distance. Like that metric it marks the comeback, not permanent
// tranquility: faults whose damage persists after the window (a held
// AWB tilt, an accumulated clock offset) recover and may wobble
// again. recoverFrame is -1 when the score never reaches recoverAbove
// after settle.
func AnalyzeHealth(samples []float64, eventFrame, settleFrame int, recoverAbove float64) (min float64, minFrame, recoverFrame int) {
	min, minFrame = 1, -1
	if eventFrame < 0 {
		eventFrame = 0
	}
	if settleFrame < 0 {
		settleFrame = 0
	}
	for i := eventFrame; i < len(samples); i++ {
		if samples[i] < min {
			min, minFrame = samples[i], i
		}
	}
	for i := settleFrame; i < len(samples); i++ {
		if samples[i] >= recoverAbove {
			return min, minFrame, i
		}
	}
	return min, minFrame, -1
}

// ClassHealth is one fault class's health trajectory, as measured by
// a dedicated soak run — the row type of HealthTable.
type ClassHealth struct {
	Class        string
	MinScore     float64
	MinFrame     int
	RecoverFrame int // first frame back above threshold after settle; -1 = never
	Final        float64
	FinalReason  string
}

// HealthTable renders per-class health trajectories as an aligned
// table; the per-class soak test prints it when an assertion fails so
// the failure shows every class's dip and recovery at once.
func HealthTable(rows []ClassHealth) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%-16s %9s %9s %13s %8s  %s\n",
		"class", "min", "min@frame", "recover@frame", "final", "reason")
	for _, r := range rows {
		rec := fmt.Sprintf("%d", r.RecoverFrame)
		if r.RecoverFrame < 0 {
			rec = "never"
		}
		fmt.Fprintf(&b, "%-16s %9.3f %9d %13s %8.3f  %s\n",
			r.Class, r.MinScore, r.MinFrame, rec, r.Final, r.FinalReason)
	}
	return b.String()
}

// recoveryLatency computes, for every impairment that settled before
// the capture ended, the distance in frames from its settle time to
// the next recovered block. It returns the worst such distance (-1 if
// no event settled in time) and the number of events never followed
// by a recovery.
func recoveryLatency(s fault.Schedule, fps float64, nFrames int, recoveredAt []int) (worst, unrecovered int) {
	worst = -1
	for _, settle := range s.SettleTimes() {
		settleFrame := int(settle * fps)
		if settleFrame >= nFrames {
			continue // settled after the capture; nothing to measure
		}
		lat := -1
		for _, f := range recoveredAt {
			if f >= settleFrame {
				lat = f - settleFrame
				break
			}
		}
		if lat < 0 {
			unrecovered++
			continue
		}
		if lat > worst {
			worst = lat
		}
	}
	return worst, unrecovered
}

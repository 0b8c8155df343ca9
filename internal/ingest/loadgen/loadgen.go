// Package loadgen replays fleets of simulated capture devices against
// an ingest service and measures what the paper's receiver-side story
// becomes at service scale: submit-to-decode latency percentiles and
// the shed rate once admission control engages.
//
// Devices cycle through the device-survey profiles (Nexus 5,
// iPhone 5S, ideal reference — the same trio examples/devicesurvey
// compares), each replaying a pre-captured waveform session. Captures
// are expensive to simulate, so the fleet shares a small pool of
// capture variants per profile; device identity (and therefore
// calibration-cache behavior and shard placement) stays per-device.
// Multiple rounds reconnect every device, exercising the calibration
// cache the way a real fleet of intermittently connected devices
// would.
//
// With Verify > 0, that many sessions are re-decoded in-process on a
// reference receiver — seeded from the session's WELCOME snapshot
// when the server seeded its own — over exactly the frames the server
// admitted, and the block-stream digests must match: load shedding
// may drop frames, but it must never corrupt what was decoded.
package loadgen

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"time"

	"colorbars/internal/camera"
	"colorbars/internal/channel"
	"colorbars/internal/csk"
	"colorbars/internal/ingest"
	"colorbars/internal/link"
	"colorbars/internal/telemetry"
)

// Params configures one load run.
type Params struct {
	// Addr is the ingest service address to replay against.
	Addr string
	// Devices is the fleet size. Zero or negative means 8.
	Devices int
	// Rounds is how many sessions each device runs (a round ends when
	// every device's session finished; the next round reconnects them
	// all). Zero or negative means 1; at least 2 exercises the
	// calibration cache.
	Rounds int
	// Seconds is the simulated capture length each session replays.
	// Zero or negative means 2.
	Seconds float64
	// Order / SymbolRate / WhiteFraction are the link parameters every
	// device transmits with. Zeroes mean CSK8 at 2 kHz, white 0.2.
	Order         csk.Order
	SymbolRate    float64
	WhiteFraction float64
	// Seed derives the capture variants and payloads.
	Seed int64
	// Concurrency bounds simultaneously open sessions. Zero or
	// negative means 16.
	Concurrency int
	// Variants is how many distinct captures are simulated per profile
	// and shared across the fleet (bounds memory and setup time).
	// Zero or negative means 2.
	Variants int
	// Verify is how many sessions (counted across the whole run) to
	// re-decode serially and digest-compare. Negative means all.
	Verify int
}

// Result is one run's measurements.
type Result struct {
	Devices  int           `json:"devices"`
	Rounds   int           `json:"rounds"`
	Sessions int           `json:"sessions"`
	Elapsed  time.Duration `json:"elapsed_ns"`

	FramesSent uint64 `json:"frames_sent"`
	Acked      uint64 `json:"frames_acked"`
	ShedTokens uint64 `json:"frames_shed_tokens"`
	ShedQueue  uint64 `json:"frames_shed_queue"`
	// ShedRate is total sheds over frames sent.
	ShedRate float64 `json:"shed_rate"`

	// Latency percentiles over every acknowledged frame's
	// submit-to-decode latency, in microseconds.
	P50Us float64 `json:"p50_us"`
	P99Us float64 `json:"p99_us"`
	MaxUs float64 `json:"max_us"`

	Blocks   uint64 `json:"blocks"`
	BlocksOK uint64 `json:"blocks_ok"`
	// CacheHits counts sessions the server seeded from its calibration
	// cache (expected: every session after a device's first).
	CacheHits int `json:"cache_hits"`

	// Verified / DigestMismatches report the serial re-decode check.
	Verified         int `json:"verified"`
	DigestMismatches int `json:"digest_mismatches"`
}

// String renders the operator-facing summary.
func (r *Result) String() string {
	return fmt.Sprintf(
		"%d devices x %d rounds: %d sessions in %.1fs\n"+
			"frames: %d sent, %d acked, %d shed (%.1f%% shed rate; %d tokens, %d queue)\n"+
			"latency: p50 %.0fµs  p99 %.0fµs  max %.0fµs\n"+
			"blocks: %d decoded (%d recovered), %d cache hits, %d/%d digests verified",
		r.Devices, r.Rounds, r.Sessions, r.Elapsed.Seconds(),
		r.FramesSent, r.Acked, r.ShedTokens+r.ShedQueue, 100*r.ShedRate,
		r.ShedTokens, r.ShedQueue,
		r.P50Us, r.P99Us, r.MaxUs,
		r.Blocks, r.BlocksOK, r.CacheHits, r.Verified-r.DigestMismatches, r.Verified)
}

// device is one fleet member's replay identity.
type device struct {
	id     string
	prof   camera.Profile
	hello  ingest.Hello
	frames []*camera.Frame
}

// Run executes one load run against the service at p.Addr.
func Run(p Params) (*Result, error) {
	if p.Devices <= 0 {
		p.Devices = 8
	}
	if p.Rounds <= 0 {
		p.Rounds = 1
	}
	if p.Seconds <= 0 {
		p.Seconds = 2
	}
	if p.Order == 0 {
		p.Order = csk.CSK8
	}
	if p.SymbolRate <= 0 {
		p.SymbolRate = 2000
	}
	if p.WhiteFraction <= 0 {
		p.WhiteFraction = 0.2
	}
	if p.Concurrency <= 0 {
		p.Concurrency = 16
	}
	if p.Variants <= 0 {
		p.Variants = 2
	}
	if p.Verify < 0 {
		p.Verify = p.Devices * p.Rounds
	}

	profiles := []camera.Profile{camera.Nexus5(), camera.IPhone5S(), camera.Ideal()}
	captures, err := buildCaptures(profiles, p)
	if err != nil {
		return nil, err
	}
	fleet := make([]*device, p.Devices)
	for d := range fleet {
		prof := profiles[d%len(profiles)]
		variant := (d / len(profiles)) % p.Variants
		fleet[d] = &device{
			id:     fmt.Sprintf("loadgen-%02d-%s", d, prof.Name),
			prof:   prof,
			frames: captures[captureKey(prof.Name, variant)],
			hello: ingest.Hello{
				DeviceID:      fmt.Sprintf("loadgen-%02d-%s", d, prof.Name),
				Order:         int(p.Order),
				SymbolRate:    p.SymbolRate,
				WhiteFraction: p.WhiteFraction,
				DataFraction:  1 - p.WhiteFraction,
				FrameRate:     prof.FrameRate,
				LossRatio:     prof.LossRatio(),
			},
		}
	}

	res := &Result{Devices: p.Devices, Rounds: p.Rounds}
	var (
		mu        sync.Mutex
		latencies []float64
		toVerify  = p.Verify
	)
	start := time.Now()
	for round := 0; round < p.Rounds; round++ {
		sem := make(chan struct{}, p.Concurrency)
		var wg sync.WaitGroup
		errs := make([]error, len(fleet))
		for d, dev := range fleet {
			wg.Add(1)
			sem <- struct{}{}
			go func(d int, dev *device) {
				defer wg.Done()
				defer func() { <-sem }()
				sr, err := ingest.RunSession(p.Addr, dev.hello, dev.frames, dev.prof.QuantBits)
				if err != nil {
					errs[d] = fmt.Errorf("%s round %d: %w", dev.id, round, err)
					return
				}
				mu.Lock()
				defer mu.Unlock()
				res.Sessions++
				res.FramesSent += sr.Stats.FramesIn
				res.Acked += uint64(len(sr.AckLatencyUs))
				res.ShedTokens += sr.Stats.ShedTokens
				res.ShedQueue += sr.Stats.ShedQueue
				res.Blocks += sr.Stats.Blocks
				res.BlocksOK += sr.Stats.BlocksOK
				if sr.CalHit() {
					res.CacheHits++
				}
				for _, us := range sr.AckLatencyUs {
					latencies = append(latencies, float64(us))
				}
				if toVerify > 0 {
					toVerify--
					res.Verified++
					ok, err := verifyDigest(dev, sr)
					if err != nil {
						errs[d] = fmt.Errorf("%s round %d: verify: %w", dev.id, round, err)
						return
					}
					if !ok {
						res.DigestMismatches++
					}
				}
			}(d, dev)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	res.Elapsed = time.Since(start)
	if res.FramesSent > 0 {
		res.ShedRate = float64(res.ShedTokens+res.ShedQueue) / float64(res.FramesSent)
	}
	res.P50Us, res.P99Us, res.MaxUs = percentiles(latencies)
	return res, nil
}

func captureKey(profName string, variant int) string {
	return fmt.Sprintf("%s#%d", profName, variant)
}

// buildCaptures simulates the shared capture pool: Variants captures
// per profile, each a device imaging its LED directly (no optical
// channel) while it repeats a one-block message.
func buildCaptures(profiles []camera.Profile, p Params) (map[string][]*camera.Frame, error) {
	out := map[string][]*camera.Frame{}
	for _, prof := range profiles {
		for v := 0; v < p.Variants; v++ {
			seed := p.Seed + int64(v)*1001
			l, err := link.New(link.Config{
				Name:    "loadgen",
				Point:   link.Point{Order: p.Order, SymbolRate: p.SymbolRate, WhiteFraction: p.WhiteFraction},
				Profile: prof,
				Sizing:  link.ErasureSizing,
				Seed:    seed,
				Channel: channel.Direct(),
			})
			if err != nil {
				return nil, fmt.Errorf("loadgen: %s: %w", prof.Name, err)
			}
			msg := make([]byte, l.Code.K())
			for i := range msg {
				msg[i] = byte(int(seed) + 13*i + v)
			}
			if err := l.Broadcast(bytes.NewReader(msg), 1, p.Seconds); err != nil {
				return nil, err
			}
			frames := l.Clip(int(p.Seconds * prof.FrameRate))
			if len(frames) == 0 {
				return nil, fmt.Errorf("loadgen: %s variant %d: empty capture", prof.Name, v)
			}
			out[captureKey(prof.Name, v)] = frames
		}
	}
	return out, nil
}

// verifyDigest re-decodes the session's admitted frames on a reference
// receiver built from the HELLO (seeded from the WELCOME snapshot when
// the server seeded its own) and reports whether its block digest
// matches the wire's. A receiver that cannot be built or seeded is an
// error, not a mismatch.
func verifyDigest(dev *device, sr *ingest.SessionResult) (bool, error) {
	rx, err := dev.hello.Link().Receiver(telemetry.NewRegistry())
	if err != nil {
		return false, err
	}
	if sr.CalHit() {
		if err := link.SeedCalibration(rx, sr.Welcome.CalSnapshot); err != nil {
			return false, fmt.Errorf("seed calibration from WELCOME snapshot: %w", err)
		}
	}
	want, got := link.NewDigest(), link.NewDigest()
	for i, f := range dev.frames {
		if _, shed := sr.Shed[uint64(i)]; shed {
			continue
		}
		for _, b := range rx.ProcessFrame(f) {
			want.Add(b.Recovered, b.Data)
		}
	}
	for _, b := range rx.Flush() {
		want.Add(b.Recovered, b.Data)
	}
	for _, b := range sr.Blocks {
		got.Add(b.Recovered, b.Data)
	}
	return got.Sum64() == want.Sum64(), nil
}

// percentiles returns (p50, p99, max) of the sample in place.
func percentiles(xs []float64) (p50, p99, max float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(xs)
	at := func(q float64) float64 {
		i := int(q * float64(len(xs)-1))
		return xs[i]
	}
	return at(0.5), at(0.99), xs[len(xs)-1]
}

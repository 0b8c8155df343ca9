package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"colorbars"
	"colorbars/internal/camera"
	"colorbars/internal/fault"
	"colorbars/internal/fault/soak"
	"colorbars/internal/ingest"
	"colorbars/internal/ingest/loadgen"
	"colorbars/internal/link"
	"colorbars/internal/linkadapt"
	"colorbars/internal/metrics"
	"colorbars/internal/telemetry"
)

// benchOutDir / benchGateDir are the -bench-out and -bench-gate
// flags (set in main).
var (
	benchOutDir  string
	benchGateDir string
)

// perfCells are the benchmark trajectory's decode operating points:
// the paper's robust, dense and densest Nexus 5 links. Entry names are
// the stable keys the gate diffs across points, so renaming one
// breaks the trajectory.
var perfCells = []struct {
	name  string
	order colorbars.Order
	rate  float64
}{
	{"decode/csk8@2kHz", colorbars.CSK8, 2000},
	{"decode/csk16@3kHz", colorbars.CSK16, 3000},
	{"decode/csk32@4kHz", colorbars.CSK32, 4000},
}

// runPerf measures every trajectory cell: receiver decode cost and
// link quality at each decode operating point, the adaptive and dense
// ladders' goodput under chaos, and the ingest service's tail latency.
// It then optionally gates against the newest same-host point
// (-bench-gate) and writes this point (-bench-out).
func runPerf(duration float64, seed int64) error {
	p := &point{Schema: trajectorySchema, Time: time.Now().UTC(), Host: thisHost(), Entries: map[string][]metric{}}
	// The baseline is found first: a host with none fails before
	// measuring, and gating and recording into one directory never
	// compares a point with itself.
	var basePath string
	var base *point
	if benchGateDir != "" {
		var err error
		if basePath, base, err = latestPoint(benchGateDir, p.Host); err != nil {
			return fmt.Errorf("bench gate: %w", err)
		}
	}
	fmt.Println("== Perf: benchmark trajectory (Nexus 5 decode cells, adaptive links, ingest) ==")
	for _, cell := range perfCells {
		if err := benchCell(p, cell.name, cell.order, cell.rate, duration, seed); err != nil {
			return fmt.Errorf("%s: %w", cell.name, err)
		}
	}
	if err := benchChaosGoodput(p, seed); err != nil {
		return fmt.Errorf("goodput_chaos: %w", err)
	}
	if err := benchIngestP99(p, seed); err != nil {
		return fmt.Errorf("ingest_p99_us: %w", err)
	}
	if err := benchDenseGoodput(p, seed); err != nil {
		return fmt.Errorf("goodput_dense: %w", err)
	}
	names := make([]string, 0, len(p.Entries))
	for n := range p.Entries {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-20s", n)
		for _, m := range p.Entries[n] {
			fmt.Printf("  %s=%.6g %s", m.Metric, m.Value, m.Unit)
		}
		fmt.Println()
	}
	if benchOutDir != "" {
		path, err := writePoint(benchOutDir, p)
		if err != nil {
			return err
		}
		fmt.Printf("  trajectory point written to %s\n", path)
	}
	if base != nil {
		regs := compareTrajectory(base, p)
		for _, r := range regs {
			fmt.Printf("  REGRESSION %v\n", r)
		}
		if len(regs) > 0 {
			return fmt.Errorf("bench gate: %d regression(s) vs %s", len(regs), basePath)
		}
		fmt.Printf("  bench gate: PASS vs %s\n", basePath)
	}
	return nil
}

// benchCell measures one operating point. The decode benchmark cycles
// a clip captured once from a clean erasure-sized link (internal/link)
// through that link's receiver — steady-state per-frame cost, no
// capture or allocation of the frame stream inside the timed loop.
// Every delivered block batch is recycled, so the loop measures the
// link-layer decode path itself, which is expected to run
// allocation-free (allocs/op is gated from a zero baseline; B/op is
// context, since the benchmark harness amortizes a few hundred bytes
// of pool warm-up into it at 0 allocs/op). SER and goodput come from
// a separate ground-truth metrics run at the same point. Its SER counts
// every observed data symbol, so the densest cell reports one even
// when no block recovers.
func benchCell(p *point, name string, order colorbars.Order, rate, duration float64, seed int64) error {
	prof := camera.Nexus5()
	l, err := link.New(link.Config{
		Name:    "bench",
		Point:   link.Point{Order: order, SymbolRate: rate, WhiteFraction: 0.2},
		Profile: prof,
		Sizing:  link.ErasureSizing,
		Seed:    seed,
	})
	if err != nil {
		return err
	}
	if err := l.Broadcast(rand.New(rand.NewSource(seed)), link.MessageBlocks, duration); err != nil {
		return err
	}
	frames := l.Clip(int(duration * prof.FrameRate))
	if len(frames) == 0 {
		return fmt.Errorf("no frames captured")
	}
	rx := l.Rx

	// Min of 5 one-second benchmark runs: on a shared host, load
	// spikes last whole seconds, so three samples can all land in one
	// noisy window; five keeps the min a stable estimate of the true
	// per-frame cost on both sides of a gate comparison.
	var best testing.BenchmarkResult
	for run := 0; run < 5; run++ {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rx.Recycle(rx.ProcessFrame(frames[i%len(frames)]))
			}
		})
		if run == 0 || r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}

	m, err := metrics.Run(metrics.LinkParams{
		Order: order, SymbolRate: rate, Profile: prof,
		WhiteFraction: 0.2, Duration: duration, Seed: seed,
	})
	if err != nil {
		return err
	}
	p.Entries[name] = []metric{
		{Metric: "ns_per_frame", Value: float64(best.NsPerOp()), Unit: "ns", Better: "lower"},
		{Metric: "allocs_per_op", Value: float64(best.AllocsPerOp()), Unit: "count", Better: "lower"},
		{Metric: "bytes_per_op", Value: float64(best.AllocedBytesPerOp()), Unit: "B"},
		{Metric: "goodput_bps", Value: m.GoodputBps, Unit: "bit/s", Better: "higher"},
	}
	if m.SymbolsCompared > 0 {
		p.Entries[name] = append(p.Entries[name],
			metric{Metric: "ser", Value: m.SER, Unit: "ratio", Better: "lower", AbsSlack: 0.005})
	}
	return nil
}

// benchIngestP99 measures the ingest service's p99 submit-to-decode
// latency under a small saturating loadgen fleet — enough concurrent
// sessions that the decode shards run behind and admission control
// engages. The p99 is the ingest_p99_us trajectory cell (lower is
// better): it catches regressions in the service's queueing, sharding
// or shed policy that per-frame decode cost cannot see. It gets 25 ms
// of absolute slack, because the p99 of a saturated queue moves tens
// of milliseconds with host scheduling jitter. The companion shed rate
// is context, never gated — shedding is the mechanism that keeps the
// p99 bounded. A digest mismatch in the verified sessions is a hard
// error: the cell must never trade correctness for latency.
func benchIngestP99(p *point, seed int64) error {
	srv, err := ingest.New(ingest.Config{
		Shards:    2,
		Telemetry: telemetry.NewRegistry(),
	})
	if err != nil {
		return err
	}
	defer srv.Close(context.Background())
	res, err := loadgen.Run(loadgen.Params{
		Addr:        srv.Addr().String(),
		Devices:     12,
		Rounds:      2,
		Seconds:     0.5,
		Seed:        seed,
		Concurrency: 8,
		Verify:      2,
	})
	if err != nil {
		return err
	}
	if res.DigestMismatches > 0 {
		return fmt.Errorf("%d of %d verified sessions decoded differently over the wire",
			res.DigestMismatches, res.Verified)
	}
	p.Entries["ingest_p99_us"] = []metric{
		{Metric: "ingest_p99_us", Value: res.P99Us, Unit: "us", Better: "lower", AbsSlack: 25_000},
		{Metric: "shed_rate", Value: res.ShedRate, Unit: "ratio"},
	}
	return nil
}

// benchChaosGoodput measures the adaptive link's delivered goodput
// under the soak suite's chaos geometry — one occlusion burst severe
// enough to black out the top rung, forcing the controller through a
// full down-shift/recovery cycle. The result is the goodput_chaos
// trajectory cell: a capacity metric (higher is better) that catches
// regressions in the adaptation policy itself, which the decode-cost
// cells cannot see.
func benchChaosGoodput(p *point, seed int64) error {
	r, err := linkadapt.RunSession(linkadapt.SessionParams{
		Seed:     seed,
		Duration: soak.AdaptDuration,
		Profile:  camera.Nexus5(),
		Schedule: fault.Schedule{Events: []fault.Event{{
			Class:     fault.Occlusion,
			Start:     soak.AdaptFaultStart,
			Duration:  soak.AdaptFaultDuration,
			Magnitude: 0.6,
		}}},
		Telemetry: telemetry.Process().NewChild(),
	})
	if err != nil {
		return err
	}
	p.Entries["goodput_chaos"] = []metric{
		{Metric: "goodput_bps", Value: r.GoodputBPS, Unit: "bit/s", Better: "higher"},
	}
	return nil
}

// benchDenseGoodput measures the dense-ladder adaptive link's goodput
// under the dense soak gate's chaos geometry: an occlusion burst that
// knocks the link off the equalizer-gated 64-CSK rung and forces a
// confidence-backed reclimb. Two trajectory cells come out of one run:
// goodput_dense is capacity on the dense ladder (higher is better,
// like goodput_chaos), and eq_confidence is the mean equalizer
// confidence across anchored frames — context, never gated (shed
// rate's model), because confidence is the signal that protects
// goodput_dense, not a quality metric of its own.
func benchDenseGoodput(p *point, seed int64) error {
	r, err := linkadapt.RunSession(linkadapt.SessionParams{
		Seed:       seed,
		Duration:   20,
		Profile:    camera.Ideal(),
		Controller: linkadapt.Config{Ladder: linkadapt.DenseLadder(), StartRung: 1},
		Schedule: fault.Schedule{Events: []fault.Event{{
			Class: fault.Occlusion, Start: 8, Duration: 1.5, Magnitude: 0.95,
		}}},
	})
	if err != nil {
		return err
	}
	var sum float64
	var n int
	for _, c := range r.EqConfByFrame {
		if c > 0 { // zero = unanchored; only anchored frames carry signal
			sum += c
			n++
		}
	}
	mean := 0.0
	if n > 0 {
		mean = sum / float64(n)
	}
	p.Entries["goodput_dense"] = []metric{
		{Metric: "goodput_bps", Value: r.GoodputBPS, Unit: "bit/s", Better: "higher"},
	}
	p.Entries["eq_confidence"] = []metric{{Metric: "eq_confidence", Value: mean, Unit: "ratio"}}
	return nil
}

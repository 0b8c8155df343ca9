package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
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
	"colorbars/internal/linkstats"
	"colorbars/internal/metrics"
	"colorbars/internal/telemetry"
)

// benchOutDir / benchGateDir / benchHandicap are the -bench-out,
// -bench-gate and -handicap flags (set in main). The handicap
// multiplies every measured cost metric before reporting — its only
// purpose is proving the gate trips: `-exp perf -bench-gate bench
// -handicap 2` must fail against a baseline the unhandicapped run
// passes.
var (
	benchOutDir   string
	benchGateDir  string
	benchHandicap float64 = 1
	benchAdapt    bool
	benchIngest   bool
	benchDense    bool
)

// benchGateTolerance is the relative regression budget per metric:
// a current value past baseline*(1+tolerance) fails the gate.
const benchGateTolerance = 0.10

// perfCells are the benchmark trajectory's operating points: the
// paper's robust, dense and densest Nexus 5 links. Entry names are the
// stable keys CompareBench diffs across dated reports, so renaming one
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

// runPerf measures receiver decode cost (ns/frame, B/op, allocs/op via
// the Go benchmark machinery, min of 5 runs) and link quality
// (ground-truth SER from an instrumented metrics run) for every
// trajectory cell, then optionally writes the dated BENCH_<date>.json
// point (-bench-out) and gates against the newest committed baseline
// (-bench-gate).
func runPerf(duration float64, seed int64) error {
	report := &linkstats.BenchReport{
		Schema:    linkstats.BenchSchemaVersion,
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		Entries:   map[string]linkstats.BenchEntry{},
	}
	fmt.Println("== Perf: receiver decode benchmark trajectory (Nexus 5) ==")
	if benchHandicap != 1 {
		fmt.Printf("  handicap %.2fx applied (gate self-test mode)\n", benchHandicap)
	}
	fmt.Printf("  %-20s %14s %12s %11s %11s %9s\n",
		"Experiment", "ns/frame", "B/op", "allocs/op", "frames/s", "SER")
	for _, cell := range perfCells {
		e, err := benchCell(cell.order, cell.rate, duration, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", cell.name, err)
		}
		report.Entries[cell.name] = e
		fmt.Printf("  %-20s %14.0f %12d %11d %11.1f %9.4f\n",
			cell.name, e.NsPerFrame, e.BytesPerOp, e.AllocsPerOp, e.FramesPerSec, e.SER)
	}
	if benchAdapt {
		e, err := benchChaosGoodput(seed)
		if err != nil {
			return fmt.Errorf("goodput_chaos: %w", err)
		}
		report.Entries["goodput_chaos"] = e
		fmt.Printf("  %-20s %14.0f bps goodput under chaos (adaptive)\n", "goodput_chaos", e.GoodputBps)
	}
	if benchIngest {
		e, err := benchIngestP99(seed)
		if err != nil {
			return fmt.Errorf("ingest_p99_us: %w", err)
		}
		report.Entries["ingest_p99_us"] = e
		fmt.Printf("  %-20s %14.0f µs p99 submit-to-decode, %.1f%% shed at saturation\n",
			"ingest_p99_us", e.IngestP99Us, e.ShedRate*100)
	}
	if benchDense {
		gp, conf, err := benchDenseGoodput(seed)
		if err != nil {
			return fmt.Errorf("goodput_dense: %w", err)
		}
		report.Entries["goodput_dense"] = gp
		report.Entries["eq_confidence"] = conf
		fmt.Printf("  %-20s %14.0f bps goodput on the dense ladder under chaos\n",
			"goodput_dense", gp.GoodputBps)
		fmt.Printf("  %-20s %14.3f mean equalizer confidence (context, never gated)\n",
			"eq_confidence", conf.EqConfidence)
	}
	if benchOutDir != "" {
		path, err := linkstats.WriteBenchReport(benchOutDir, report)
		if err != nil {
			return err
		}
		fmt.Printf("  trajectory point written to %s\n", path)
	}
	if benchGateDir != "" {
		basePath, base, err := linkstats.LatestBenchReport(benchGateDir)
		if err != nil {
			return err
		}
		regs, err := linkstats.CompareBench(base, report, benchGateTolerance)
		if err != nil {
			return err
		}
		if len(regs) > 0 {
			for _, r := range regs {
				fmt.Printf("  REGRESSION %v\n", r)
			}
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
// allocation-free. The SER comes from a separate ground-truth metrics
// run at the same point (the linkstats collector compares every
// recovered block's raw symbols against the transmitted stream).
func benchCell(order colorbars.Order, rate, duration float64, seed int64) (linkstats.BenchEntry, error) {
	prof := camera.Nexus5()
	l, err := link.New(link.Config{
		Name:    "bench",
		Point:   link.Point{Order: order, SymbolRate: rate, WhiteFraction: 0.2},
		Profile: prof,
		Sizing:  link.ErasureSizing,
		Seed:    seed,
	})
	if err != nil {
		return linkstats.BenchEntry{}, err
	}
	if err := l.Broadcast(rand.New(rand.NewSource(seed)), link.MessageBlocks, duration); err != nil {
		return linkstats.BenchEntry{}, err
	}
	frames := l.Clip(int(duration * prof.FrameRate))
	if len(frames) == 0 {
		return linkstats.BenchEntry{}, fmt.Errorf("no frames captured")
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
		return linkstats.BenchEntry{}, err
	}

	ns := float64(best.NsPerOp()) * benchHandicap
	e := linkstats.BenchEntry{
		NsPerFrame:  ns,
		BytesPerOp:  int64(float64(best.AllocedBytesPerOp()) * benchHandicap),
		AllocsPerOp: int64(float64(best.AllocsPerOp()) * benchHandicap),
		SER:         m.Health.SER,
		HasSER:      m.Health.SymbolsCompared > 0,
	}
	if ns > 0 {
		e.FramesPerSec = 1e9 / ns
	}
	return e, nil
}

// benchIngestP99 measures the ingest service's p99 submit-to-decode
// latency under a small saturating loadgen fleet — enough concurrent
// sessions that the decode shards run behind and admission control
// engages. The p99 is the ingest_p99_us trajectory cell (higher is
// worse): it catches regressions in the service's queueing, sharding
// or shed policy that per-frame decode cost cannot see. The companion
// shed rate is recorded for context but never gated — shedding is the
// mechanism that keeps the p99 bounded. A digest mismatch in the
// verified sessions is a hard error: the cell must never trade
// correctness for latency.
func benchIngestP99(seed int64) (linkstats.BenchEntry, error) {
	srv, err := ingest.New(ingest.Config{
		Shards:    2,
		Telemetry: telemetry.NewRegistry(),
	})
	if err != nil {
		return linkstats.BenchEntry{}, err
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
		return linkstats.BenchEntry{}, err
	}
	if res.DigestMismatches > 0 {
		return linkstats.BenchEntry{}, fmt.Errorf("%d of %d verified sessions decoded differently over the wire",
			res.DigestMismatches, res.Verified)
	}
	return linkstats.BenchEntry{
		IngestP99Us: res.P99Us * benchHandicap,
		ShedRate:    res.ShedRate,
	}, nil
}

// benchChaosGoodput measures the adaptive link's delivered goodput
// under the soak suite's chaos geometry — one occlusion burst severe
// enough to black out the top rung, forcing the controller through a
// full down-shift/recovery cycle. The result is the goodput_chaos
// trajectory cell: a capacity metric (lower is worse) that catches
// regressions in the adaptation policy itself, which the decode-cost
// cells cannot see. The handicap divides goodput (its bad direction is
// down) so `-handicap 2 -bench-gate` still proves the gate trips.
func benchChaosGoodput(seed int64) (linkstats.BenchEntry, error) {
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
		return linkstats.BenchEntry{}, err
	}
	return linkstats.BenchEntry{GoodputBps: r.GoodputBPS / benchHandicap}, nil
}

// benchDenseGoodput measures the dense-ladder adaptive link's goodput
// under the dense soak gate's chaos geometry: an occlusion burst that
// knocks the link off the equalizer-gated 64-CSK rung and forces a
// confidence-backed reclimb. Two trajectory cells come out of one run:
// goodput_dense is capacity on the dense ladder (lower is worse in the
// gate, like goodput_chaos — the handicap divides it), and
// eq_confidence is the mean equalizer confidence across anchored
// frames — recorded for context, never gated (ShedRate's model),
// because confidence is the signal that protects goodput_dense, not a
// quality metric of its own.
func benchDenseGoodput(seed int64) (goodput, conf linkstats.BenchEntry, err error) {
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
		return linkstats.BenchEntry{}, linkstats.BenchEntry{}, err
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
	return linkstats.BenchEntry{GoodputBps: r.GoodputBPS / benchHandicap},
		linkstats.BenchEntry{EqConfidence: mean}, nil
}

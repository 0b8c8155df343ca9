package link_test

import (
	"reflect"
	"testing"

	"colorbars"
	"colorbars/internal/camera"
	"colorbars/internal/csk"
	"colorbars/internal/fault"
	"colorbars/internal/fault/soak"
	"colorbars/internal/linkadapt"
	"colorbars/internal/metrics"
	"colorbars/internal/modem"
)

// The literals below were recorded from the hand-wired drivers that
// internal/link replaced. Every driver built on the link package must
// reproduce them exactly: the refactor contract is byte-identical
// decode output, not merely reproducible reruns. The runs are short
// (about 10 simulated seconds in total) so the pin stays cheap.

func TestMetricsRunParity(t *testing.T) {
	for _, c := range []struct {
		name    string
		p       metrics.LinkParams
		stats   modem.RxStats
		ser     float64
		cmp     int
		goodput float64
	}{
		{
			name: "clean",
			p: metrics.LinkParams{Order: csk.CSK8, SymbolRate: 2000, Profile: camera.Nexus5(),
				WhiteFraction: 0.2, Duration: 0.7, Seed: 3},
			stats: modem.RxStats{Frames: 21, SymbolsIn: 1080, DataSymbolsIn: 719, WhiteSymbolsIn: 234, OffSymbolsIn: 127,
				DataPackets: 4, CalibrationPackets: 3, DiscardedPackets: 18, BlocksOK: 4},
			ser: 0, cmp: 266, goodput: 822.8571428571429,
		},
		{
			name: "drop+duplicate",
			p: metrics.LinkParams{Order: csk.CSK16, SymbolRate: 3000, Profile: camera.Nexus5(),
				WhiteFraction: 0.2, Duration: 1, Seed: 5,
				Fault: fault.Schedule{Events: []fault.Event{
					{Class: fault.FrameDrop, Start: 0.1, Duration: 0.4, Magnitude: 0.5},
					{Class: fault.FrameDuplicate, Start: 0.5, Duration: 0.4, Magnitude: 0.5},
				}}},
			stats: modem.RxStats{Frames: 29, SymbolsIn: 2248, DataSymbolsIn: 1406, WhiteSymbolsIn: 532, OffSymbolsIn: 310,
				DataPackets: 6, CalibrationPackets: 5, DiscardedPackets: 61, BlocksOK: 5, BlocksFailed: 1},
			ser: 0.03643724696356275, cmp: 247, goodput: 720,
		},
		{
			name: "erasure sizing, calibration every 12",
			p: metrics.LinkParams{Order: csk.CSK8, SymbolRate: 2000, Profile: camera.Nexus5(),
				WhiteFraction: 0.2, Duration: 0.7, Seed: 9, ErasureSizing: true, CalibrationEvery: 12},
			stats: modem.RxStats{Frames: 21, SymbolsIn: 1076, DataSymbolsIn: 736, WhiteSymbolsIn: 249, OffSymbolsIn: 91,
				DataPackets: 11, CalibrationPackets: 1, BlocksOK: 10, BlocksFailed: 1},
			ser: 0, cmp: 664, goodput: 1828.5714285714287,
		},
		{
			name: "two workers",
			p: metrics.LinkParams{Order: csk.CSK16, SymbolRate: 4000, Profile: camera.IPhone5S(),
				WhiteFraction: 0.2, Duration: 0.7, Seed: 4, Workers: 2},
			stats: modem.RxStats{Frames: 21, SymbolsIn: 1766, DataSymbolsIn: 1157, WhiteSymbolsIn: 358, OffSymbolsIn: 251,
				DataPackets: 13, CalibrationPackets: 1, DiscardedPackets: 32, BlocksOK: 8},
			ser: 0.013761467889908258, cmp: 436, goodput: 1005.7142857142858,
		},
	} {
		r, err := metrics.Run(c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if r.Stats != c.stats {
			t.Errorf("%s: stats\n  got  %+v\n  want %+v", c.name, r.Stats, c.stats)
		}
		if r.SER != c.ser || r.SymbolsCompared != c.cmp || r.GoodputBps != c.goodput {
			t.Errorf("%s: SER %v over %d symbols, goodput %v; want %v over %d, %v",
				c.name, r.SER, r.SymbolsCompared, r.GoodputBps, c.ser, c.cmp, c.goodput)
		}
	}
}

func TestSoakRunParity(t *testing.T) {
	for _, workers := range []int{0, 4} {
		r, err := soak.Run(soak.Params{Seed: 7, Duration: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if r.Digest != 0x7e31fad4d766796a || r.Frames != 29 || r.BlocksOK != 3 || r.BlocksFailed != 2 {
			t.Errorf("workers %d: %v; want 29 frames, 3/5 blocks, digest 7e31fad4d766796a", workers, r)
		}
	}
	// The dense 64-CSK case stretches the calibration interval past the
	// four-block message, so the message itself must stretch.
	for _, c := range []struct {
		disableEq bool
		health    float64
	}{{false, 0.8235412355427648}, {true, 0.83210720970908}} {
		r, err := soak.Run(soak.Params{
			Seed: 42, Duration: 1.5, Order: csk.CSK64, SymbolRate: 4000, Profile: camera.Ideal(),
			CalEvery: 18, DisableEqualizer: c.disableEq,
			Schedule: fault.Schedule{Events: []fault.Event{
				{Class: fault.AWBDrift, Start: 0.3, Duration: 0.4, Magnitude: 0.1},
				{Class: fault.AmbientRamp, Start: 0.6, Duration: 0.6, Magnitude: 0.2},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Digest != 0x9b9d7f6a90802336 || r.Frames != 45 || r.BlocksOK != 3 ||
			r.WorstRecoveryFrames != 18 || r.Health.Score != c.health {
			t.Errorf("dense, equalizer disabled %v: %v, health %v; want 45 frames, 3/3 blocks, worst recovery 18, digest 9b9d7f6a90802336, health %v",
				c.disableEq, r, r.Health.Score, c.health)
		}
	}
}

func TestAdaptiveSessionParity(t *testing.T) {
	r, err := linkadapt.RunSession(linkadapt.SessionParams{
		Seed: 11, Duration: 1.5,
		Schedule: fault.Schedule{Events: []fault.Event{
			{Class: fault.Occlusion, Start: 0.3, Duration: 0.6, Magnitude: 0.6},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []linkadapt.Decision{
		{Frame: 28, From: 2, To: 1, Reason: "low-score"},
		{Frame: 43, From: 1, To: 0, Reason: "low-score"},
	}
	if r.Digest != 0x709a4e3636c86f89 || !reflect.DeepEqual(r.Decisions, want) {
		t.Errorf("occluded adaptive session: digest %016x, decisions %v; want 709a4e3636c86f89, %v",
			r.Digest, r.Decisions, want)
	}

	r, err = linkadapt.RunSession(linkadapt.SessionParams{Seed: 11, Duration: 0.7, FixedRung: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Digest != 0x6d17ba0f4f497db5 || len(r.Decisions) != 0 || r.BlocksOK != 4 {
		t.Errorf("fixed rung 2: %v, %d decisions; want 4/4 blocks, digest 6d17ba0f4f497db5, none", r, len(r.Decisions))
	}
}

func TestSimulateParity(t *testing.T) {
	res, err := colorbars.Simulate(colorbars.DefaultConfig(), colorbars.Nexus5(), []byte("parity"), 0.7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Received == nil || string(res.Received.Data) != "parity" || res.RecoveredAt != 0.43333333333333335 {
		t.Fatalf("message %v at %v; want \"parity\" at 0.43333333333333335", res.Received, res.RecoveredAt)
	}
	want := modem.RxStats{Frames: 21, SymbolsIn: 2216, DataSymbolsIn: 870, WhiteSymbolsIn: 654, OffSymbolsIn: 692,
		DataPackets: 8, CalibrationPackets: 4, DiscardedPackets: 86, BlocksOK: 2, BlocksFailed: 4}
	if res.Stats != want || res.ProgressHave != 2 || res.ProgressTotal != 2 {
		t.Errorf("stats %+v, progress %d/%d; want %+v, 2/2", res.Stats, res.ProgressHave, res.ProgressTotal, want)
	}
}

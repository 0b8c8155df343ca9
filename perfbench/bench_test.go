package main

import (
	"encoding/json"
	"os"
	"testing"

	"colorbars/internal/csk"
	"colorbars/internal/ingest"
	"colorbars/internal/telemetry"
)

// benchmarkFile is the part of BENCHMARK.json the self-tests check
// the benchmark's output against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tinySeconds sizes each workload's tiny run: one link session, the
// minimum two decode passes, a dozen fleet sessions.
var tinySeconds = map[string]float64{"link-sim": 1, "decode-replay": 0.1, "ingest-fleet": 1}

func runTiny(t *testing.T, workload string, seed int64, trace bool) *report {
	t.Helper()
	r, err := workloads[workload](seed, tinySeconds[workload], trace)
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if r.check != nil {
		t.Fatalf("%s seed %d: correctness check failed: %v", workload, seed, r.check)
	}
	return r
}

// outcome is everything a run computes from its inputs alone.
type outcome struct {
	goodput, ser                            float64
	attempted, failed, sessions, symCompare int
}

func outcomeOf(r *report) outcome {
	return outcome{
		goodput: ratio(r.goodBits, r.simSeconds), ser: ratio(float64(r.symErrors), float64(r.symCompared)),
		attempted: r.attempted, failed: r.failed, sessions: len(r.sessionMs), symCompare: r.symCompared,
	}
}

// TestWorkloads runs each workload tiny, untraced and traced on one
// seed and untraced on another. Every metric BENCHMARK.json names must
// appear with its unit; the same seed must reproduce goodput, SER and
// every count exactly whether traced or not; another seed must change
// the inputs.
func TestWorkloads(t *testing.T) {
	b := loadBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			if _, ok := workloads[w.Name]; !ok {
				t.Fatalf("no workload %q", w.Name)
			}
			plain := runTiny(t, w.Name, 1, false)
			traced := runTiny(t, w.Name, 1, true)
			other := runTiny(t, w.Name, 2, false)

			for _, c := range []struct {
				traced bool
				want   []struct{ Name, Unit string }
			}{{false, b.EndToEnd}, {true, b.PerLayer}} {
				got := plain.result(false).Metrics
				if c.traced {
					got = traced.result(true).Metrics
				}
				if len(got) != len(c.want) {
					t.Errorf("traced=%v: %d metrics, BENCHMARK.json names %d", c.traced, len(got), len(c.want))
				}
				for _, m := range c.want {
					if v, ok := got[m.Name]; !ok || v.Unit != m.Unit {
						t.Errorf("traced=%v: metric %s = %+v, want unit %q", c.traced, m.Name, v, m.Unit)
					}
				}
			}
			for name, v := range plain.result(false).Metrics {
				if v.Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", name, v.Value)
				}
			}

			if a, b := outcomeOf(plain), outcomeOf(traced); a != b {
				t.Errorf("same seed, traced and untraced outcomes differ:\n  %+v\n  %+v", a, b)
			}
			if a, b := outcomeOf(plain), outcomeOf(other); a.goodput == b.goodput && a.ser == b.ser && a.symCompare == b.symCompare {
				t.Errorf("seeds 1 and 2 gave the same outcome %+v: the seed does not reach the inputs", a)
			}
		})
	}
}

// fakeClip is a clip whose transmitted block is known without
// capturing anything.
func fakeClip() *clip {
	return &clip{spec: clipSpec{order: csk.CSK16}, block: []byte("transmitted block")}
}

func TestTallyCountsCorruptedBlock(t *testing.T) {
	c := fakeClip()
	tl := newTally()
	tl.add(c, true, c.block, nil)
	tl.add(c, false, nil, nil)
	bad := append([]byte(nil), c.block...)
	bad[3] ^= 1
	tl.add(c, true, bad, nil)
	if tl.blocks != 3 || tl.recovered != 2 || tl.corrupted != 1 {
		t.Fatalf("blocks/recovered/corrupted = %d/%d/%d, want 3/2/1", tl.blocks, tl.recovered, tl.corrupted)
	}
	if tl.goodBits != float64(8*len(c.block)) {
		t.Fatalf("goodBits = %v, want only the intact block's", tl.goodBits)
	}
}

func TestCheckWireTripsOnCorruptedBlock(t *testing.T) {
	c := fakeClip()
	want := newTally()
	want.add(c, true, c.block, nil)
	want.add(c, false, nil, nil)
	s := &fleetSession{device: "dev", clip: c, res: &ingest.SessionResult{
		Blocks: []ingest.Block{{Recovered: true, Data: append([]byte(nil), c.block...)}, {Recovered: false}},
	}}
	if _, err := checkWire(s, want); err != nil {
		t.Fatalf("intact stream: %v", err)
	}
	s.res.Blocks[0].Data[0] ^= 0x80
	if _, err := checkWire(s, want); err == nil {
		t.Fatal("corrupted wire block passed the digest check")
	}
	s.res.Blocks[0].Data[0] ^= 0x80
	s.res.Blocks[1].Recovered = true
	if _, err := checkWire(s, want); err == nil {
		t.Fatal("flipped recovered flag passed the digest check")
	}
}

// TestCheckAgainstRunTrips runs one link session stage by stage, checks
// it reproduces metrics.Run, then tampers with each compared output.
func TestCheckAgainstRunTrips(t *testing.T) {
	p := linkParams(7, linkSeconds, telemetry.NewRegistry())
	s, err := runLinkSession(p, &layerTimes{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAgainstRun(p, s); err != nil {
		t.Fatal(err)
	}
	good := *s
	s.goodput += 8
	if checkAgainstRun(p, s) == nil {
		t.Error("altered goodput passed the metrics.Run check")
	}
	*s = good
	s.stats.BlocksOK++
	if checkAgainstRun(p, s) == nil {
		t.Error("altered receiver stats passed the metrics.Run check")
	}
}

func TestDecodeReplayTripsOnDigestMismatch(t *testing.T) {
	c := fakeClip()
	first, later := newTally(), newTally()
	first.add(c, true, c.block, nil)
	bad := append([]byte(nil), c.block...)
	bad[0]++
	later.add(c, true, bad, nil)
	if err := checkPass(1, later, first); err == nil {
		t.Fatal("a pass with a different block passed the digest check")
	}
	if err := checkPass(1, first, first); err != nil {
		t.Fatal(err)
	}
}

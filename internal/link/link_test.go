package link_test

import (
	"math/rand"
	"testing"

	"colorbars/internal/camera"
	"colorbars/internal/csk"
	"colorbars/internal/fault"
	"colorbars/internal/link"
	"colorbars/internal/modem"
)

// TestStreamMatchesClipDecode: streaming a session (capture, filter,
// decode, drop — frame by frame) decodes exactly what capturing the
// whole clip first and decoding it afterwards does, serially and
// through the pipeline, under frame drops and duplicates.
func TestStreamMatchesClipDecode(t *testing.T) {
	cfg := link.Config{
		Name:    "test",
		Point:   link.Point{Order: csk.CSK8, SymbolRate: 2000, WhiteFraction: 0.2},
		Profile: camera.Nexus5(),
		Seed:    3,
		Fault: fault.Schedule{Events: []fault.Event{
			{Class: fault.FrameDrop, Start: 0.1, Duration: 0.3, Magnitude: 0.5},
			{Class: fault.FrameDuplicate, Start: 0.4, Duration: 0.3, Magnitude: 0.5},
		}},
	}
	const n = 24
	digest := func(blocks []modem.Block) uint64 {
		d := link.NewDigest()
		for _, b := range blocks {
			d.Add(b.Recovered, b.Data)
		}
		return d.Sum64()
	}
	build := func(workers int) *link.Link {
		c := cfg
		c.Workers = workers
		l, err := link.New(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Broadcast(rand.New(rand.NewSource(c.Seed)), link.MessageBlocks, 1); err != nil {
			t.Fatal(err)
		}
		return l
	}

	clip := build(0).Clip(n)
	want, err := build(0).Decode(clip)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || len(clip) == n {
		t.Fatalf("%d blocks from %d delivered frames: the case exercises neither decode nor the frame faults", len(want), len(clip))
	}
	for _, workers := range []int{0, 2} {
		var streamed []modem.Block
		rest, delivered, err := build(workers).Stream(n, func(bs []modem.Block) { streamed = append(streamed, bs...) })
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, rest...)
		if delivered != len(clip) || digest(streamed) != digest(want) {
			t.Errorf("workers %d: streamed %d frames, digest %016x; clip %d frames, digest %016x",
				workers, delivered, digest(streamed), len(clip), digest(want))
		}
	}
}

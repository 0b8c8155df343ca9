package loadgen

import (
	"strings"
	"testing"

	"colorbars/internal/camera"
	"colorbars/internal/csk"
	"colorbars/internal/ingest"
	"colorbars/internal/link"
	"colorbars/internal/telemetry"
)

func parityDevice(t *testing.T) *device {
	t.Helper()
	p := Params{Seconds: 0.5, Seed: 1, Variants: 1, Order: csk.CSK8, SymbolRate: 2000, WhiteFraction: 0.2}
	prof := camera.Nexus5()
	caps, err := buildCaptures([]camera.Profile{prof}, p)
	if err != nil {
		t.Fatal(err)
	}
	return &device{
		id:     "parity",
		prof:   prof,
		frames: caps[captureKey(prof.Name, 0)],
		hello: ingest.Hello{
			DeviceID: "parity", Order: int(p.Order), SymbolRate: p.SymbolRate,
			WhiteFraction: p.WhiteFraction, DataFraction: 1 - p.WhiteFraction,
			FrameRate: prof.FrameRate, LossRatio: prof.LossRatio(),
		},
	}
}

// TestCaptureDigestParity pins the serial decode of one capture
// variant to the digest recorded from the hand-wired capture that
// internal/link replaced.
func TestCaptureDigestParity(t *testing.T) {
	dev := parityDevice(t)
	rx, err := dev.hello.Link().Receiver(telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	d := link.NewDigest()
	ok := 0
	for _, f := range dev.frames {
		for _, b := range rx.ProcessFrame(f) {
			d.Add(b.Recovered, b.Data)
			if b.Recovered {
				ok++
			}
		}
	}
	for _, b := range rx.Flush() {
		d.Add(b.Recovered, b.Data)
		if b.Recovered {
			ok++
		}
	}
	if len(dev.frames) != 15 || ok != 2 || d.Sum64() != 0x46a1f0d35eadd4a7 {
		t.Errorf("%d frames, %d blocks recovered, digest %016x; want 15, 2, 46a1f0d35eadd4a7",
			len(dev.frames), ok, d.Sum64())
	}
}

// TestVerifyDigestCorruptSnapshot: a cache-hit WELCOME whose snapshot
// does not decode leaves verification unable to build its reference
// receiver, which is an error — not a digest mismatch.
func TestVerifyDigestCorruptSnapshot(t *testing.T) {
	dev := parityDevice(t)
	sr := &ingest.SessionResult{Welcome: ingest.Welcome{CalSnapshot: []byte{0xde, 0xad, 0xbe, 0xef}}}
	if !sr.CalHit() {
		t.Fatal("session with a snapshot is not a cache hit")
	}
	ok, err := verifyDigest(dev, sr)
	if err == nil {
		t.Fatalf("corrupt snapshot verified without error (match=%v)", ok)
	}
	if !strings.Contains(err.Error(), "snapshot") {
		t.Errorf("error %q does not name the snapshot", err)
	}
}

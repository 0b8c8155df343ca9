package colorbars

import (
	"fmt"

	"colorbars/internal/modem"
)

// SimResult summarizes one simulated broadcast-and-receive session.
type SimResult struct {
	// Received is the reassembled message, nil if the capture window
	// ended before every block arrived.
	Received *Message
	// RecoveredAt is the capture time in seconds at which the message
	// completed (0 when Received is nil).
	RecoveredAt float64
	// Stats carries the receiver's low-level counters.
	Stats modem.RxStats
	// Health is the receiver's end-of-session link-quality snapshot.
	Health LinkHealth
	// Progress is the block-collection state at the end of the
	// session (equal when the message completed).
	ProgressHave, ProgressTotal int
}

// Simulate runs a complete link in one call: a transmitter broadcasts
// the message in a loop for the given duration, the device films the
// LED, and a receiver decodes every frame. It is the programmatic
// equivalent of cmd/colorbars-sim and the quickest way to evaluate a
// configuration.
func Simulate(cfg Config, prof Profile, msg []byte, seconds float64, seed int64) (SimResult, error) {
	if seconds <= 0 {
		return SimResult{}, fmt.Errorf("colorbars: duration %v must be positive", seconds)
	}
	tx, err := NewTransmitter(cfg)
	if err != nil {
		return SimResult{}, err
	}
	rx, err := NewReceiver(cfg)
	if err != nil {
		return SimResult{}, err
	}
	wave, err := tx.Broadcast(msg, seconds)
	if err != nil {
		return SimResult{}, err
	}
	cam := NewCamera(prof, seed)
	var res SimResult
	frames := int(seconds * prof.FrameRate)
	for i := 0; i < frames; i++ {
		f := cam.CaptureVideo(wave, float64(i)*prof.FramePeriod(), 1)[0]
		for _, m := range rx.ProcessFrame(f) {
			if res.Received == nil {
				m := m
				res.Received = &m
				res.RecoveredAt = float64(i+1) * prof.FramePeriod()
			}
		}
	}
	for _, m := range rx.Flush() {
		if res.Received == nil {
			m := m
			res.Received = &m
			res.RecoveredAt = seconds
		}
	}
	res.Stats = rx.Stats()
	res.Health = rx.Health()
	res.ProgressHave, res.ProgressTotal = rx.Progress()
	if res.Received != nil {
		res.ProgressHave, res.ProgressTotal = res.Received.Blocks, res.Received.Blocks
	}
	return res, nil
}

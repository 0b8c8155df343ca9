// Package channel models the free-space optical path between the
// tri-LED and the camera: geometric attenuation with distance, ambient
// light, and an optional line-of-sight obstruction window.
//
// The paper's prototype used a low-lumen LED, forcing the phone within
// 3 cm of the source (§8, §10); the attenuation model makes that
// trade-off explicit and lets experiments sweep distance.
package channel

import (
	"fmt"

	"colorbars/internal/camera"
	"colorbars/internal/colorspace"
)

// Config describes the optical path.
type Config struct {
	// Distance between LED and camera in meters. Received power
	// follows an inverse-square law normalized to ReferenceDistance.
	Distance float64
	// ReferenceDistance is the distance at which gain is 1 (the
	// paper's ~3 cm close-range setup).
	ReferenceDistance float64
	// Ambient is a constant background radiance added to the LED's
	// light (indoor lighting, sunlight). White ambient light shifts
	// every received color toward the white point.
	Ambient colorspace.RGB
}

// DefaultConfig reproduces the paper's bench setup: camera at the
// reference distance, dim indoor ambient light.
func DefaultConfig() Config {
	return Config{
		Distance:          0.03,
		ReferenceDistance: 0.03,
		Ambient:           colorspace.RGB{R: 0.002, G: 0.002, B: 0.002},
	}
}

// Direct is the lossless path: unit gain and no ambient light, so the
// camera images the LED's own radiance bit for bit.
func Direct() Config {
	return Config{Distance: 1, ReferenceDistance: 1}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Distance <= 0 {
		return fmt.Errorf("channel: distance %v must be positive", c.Distance)
	}
	if c.ReferenceDistance <= 0 {
		return fmt.Errorf("channel: reference distance %v must be positive", c.ReferenceDistance)
	}
	if c.Ambient.R < 0 || c.Ambient.G < 0 || c.Ambient.B < 0 {
		return fmt.Errorf("channel: negative ambient %v", c.Ambient)
	}
	return nil
}

// Gain returns the power attenuation factor for the configured
// distance.
func (c Config) Gain() float64 {
	r := c.ReferenceDistance / c.Distance
	return r * r
}

// Channel attenuates a radiance source and adds ambient light. It
// implements camera.Source, so it can be imaged directly.
type Channel struct {
	cfg  Config
	src  camera.Source
	gain float64
}

// New wraps a source with the optical path.
func New(cfg Config, src camera.Source) (*Channel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Channel{cfg: cfg, src: src, gain: cfg.Gain()}, nil
}

// Mean returns the attenuated mean radiance plus ambient over [t0, t1].
func (c *Channel) Mean(t0, t1 float64) colorspace.RGB {
	return c.src.Mean(t0, t1).Scale(c.gain).Add(c.cfg.Ambient)
}

// Config returns the channel configuration.
func (c *Channel) Config() Config { return c.cfg }

// Package colorspace implements the color-space mathematics that the
// ColorBars transmitter and receiver are built on: conversions between
// sRGB, linear RGB, CIE 1931 XYZ, xyY chromaticity, and CIELab, plus
// the ΔE (CIE76) color-difference metric used for symbol matching.
//
// Conventions:
//
//   - RGB values are in [0, 1]. "sRGB" means gamma-encoded display
//     values; "linear RGB" means light-linear intensities.
//   - XYZ is the CIE 1931 tristimulus space with Y normalized so that
//     the reference white has Y = 1.
//   - Lab is CIELab relative to a configurable white point (D65 by
//     default, matching the paper's white-illumination target).
//
// All types are plain value types; the zero value of each is black.
package colorspace

import (
	"fmt"
	"math"
)

// RGB is a tristimulus value in an RGB space. Whether it is linear or
// gamma-encoded is determined by how it is used; the conversion
// functions below are explicit about which they expect.
type RGB struct {
	R, G, B float64
}

// XYZ is a CIE 1931 tristimulus value.
type XYZ struct {
	X, Y, Z float64
}

// XY is a CIE 1931 chromaticity coordinate (the x, y of xyY).
type XY struct {
	X, Y float64
}

// Lab is a CIELab color. L is lightness in [0, 100]; A spans
// green (−) to red (+); B spans blue (−) to yellow (+).
type Lab struct {
	L, A, B float64
}

// AB is a CIELab color with the lightness dimension removed, the
// representation ColorBars demodulates in (paper §7, Step 1).
type AB struct {
	A, B float64
}

// D65 is the CIE standard illuminant D65 white point, the white the
// LED is calibrated to render.
var D65 = XYZ{X: 0.95047, Y: 1.00000, Z: 1.08883}

// D65xy is the chromaticity of D65.
var D65xy = XY{X: 0.31271, Y: 0.32902}

// EqualEnergy is the equal-energy illuminant E white point.
var EqualEnergy = XYZ{X: 1, Y: 1, Z: 1}

func (c RGB) String() string { return fmt.Sprintf("RGB(%.4f, %.4f, %.4f)", c.R, c.G, c.B) }
func (c XYZ) String() string { return fmt.Sprintf("XYZ(%.4f, %.4f, %.4f)", c.X, c.Y, c.Z) }
func (c XY) String() string  { return fmt.Sprintf("xy(%.4f, %.4f)", c.X, c.Y) }
func (c Lab) String() string { return fmt.Sprintf("Lab(%.2f, %.2f, %.2f)", c.L, c.A, c.B) }
func (c AB) String() string  { return fmt.Sprintf("ab(%.2f, %.2f)", c.A, c.B) }

// Add returns the component-wise sum of two RGB values. Light is
// additive in linear space, so this is only meaningful for linear RGB.
func (c RGB) Add(o RGB) RGB { return RGB{c.R + o.R, c.G + o.G, c.B + o.B} }

// Scale returns c with every component multiplied by k.
func (c RGB) Scale(k float64) RGB { return RGB{c.R * k, c.G * k, c.B * k} }

// Clamp limits every component to [0, 1].
func (c RGB) Clamp() RGB {
	return RGB{clamp01(c.R), clamp01(c.G), clamp01(c.B)}
}

// Max returns the largest component of c.
func (c RGB) Max() float64 { return math.Max(c.R, math.Max(c.G, c.B)) }

// Luma returns the Rec.709 luma of a linear RGB value, used by the
// receiver to distinguish OFF symbols from lit symbols.
func (c RGB) Luma() float64 { return 0.2126*c.R + 0.7152*c.G + 0.0722*c.B }

// Add returns the component-wise sum of two XYZ values.
func (c XYZ) Add(o XYZ) XYZ { return XYZ{c.X + o.X, c.Y + o.Y, c.Z + o.Z} }

// Scale returns c with every component multiplied by k.
func (c XYZ) Scale(k float64) XYZ { return XYZ{c.X * k, c.Y * k, c.Z * k} }

// Chromaticity projects an XYZ value onto the CIE 1931 chromaticity
// diagram. The chromaticity of black (X+Y+Z == 0) is defined as the
// white point projection (equal energy: 1/3, 1/3) to keep downstream
// math total.
func (c XYZ) Chromaticity() XY {
	s := c.X + c.Y + c.Z
	if s <= 0 {
		return XY{X: 1.0 / 3.0, Y: 1.0 / 3.0}
	}
	return XY{X: c.X / s, Y: c.Y / s}
}

// WithLuminance reconstructs an XYZ value from a chromaticity and a
// luminance Y. The y component must be nonzero; a zero y returns black.
func (c XY) WithLuminance(y float64) XYZ {
	if c.Y == 0 {
		return XYZ{}
	}
	return XYZ{
		X: c.X * y / c.Y,
		Y: y,
		Z: (1 - c.X - c.Y) * y / c.Y,
	}
}

// Dist returns the Euclidean distance between two chromaticities.
func (c XY) Dist(o XY) float64 {
	dx, dy := c.X-o.X, c.Y-o.Y
	return math.Hypot(dx, dy)
}

// DeltaE returns the CIE76 color difference between two Lab colors:
// the Euclidean distance in Lab space. A difference of about 2.3 is
// the just-noticeable difference the paper uses as matching threshold.
//
// The repo deliberately keeps three ΔE entry points for three layers:
//
//   - DeltaE (CIE76, this function): modem band segmentation and
//     merging — boundary detection thresholds full-Lab discontinuities
//     against boundaryTheta, where the cheap Euclidean metric matches
//     the paper's §7 receiver.
//   - AB.Dist / AB.DistSq: symbol matching — the classifier and
//     csk.NearestAB compare chromaticity only (lightness is carried by
//     modulation, not by color identity).
//   - DeltaE2000 (and the pinned-lightness DeltaE2000AB fast variant):
//     perceptual margin accounting in linkstats and the classifier's
//     precomputed margin tables, where CIE76's chroma non-uniformity
//     would misrank margins between saturated references.
func DeltaE(a, b Lab) float64 {
	dl, da, db := a.L-b.L, a.A-b.A, a.B-b.B
	return math.Sqrt(dl*dl + da*da + db*db)
}

// JND is the just-noticeable ΔE difference (paper §7, Step 3).
const JND = 2.3

// AB drops the lightness dimension.
func (c Lab) AB() AB { return AB{A: c.A, B: c.B} }

// Dist returns the Euclidean distance between two {a,b} colors, the
// ΔE restricted to the a,b-plane that the receiver matches with.
func (c AB) Dist(o AB) float64 {
	da, db := c.A-o.A, c.B-o.B
	return math.Hypot(da, db)
}

// --- sRGB gamma ---

// SRGBToLinear decodes an sRGB gamma-encoded component to linear.
func SRGBToLinear(v float64) float64 {
	if v <= 0.04045 {
		return v / 12.92
	}
	return math.Pow((v+0.055)/1.055, 2.4)
}

// LinearToSRGB encodes a linear component with the sRGB gamma curve.
func LinearToSRGB(v float64) float64 {
	if v <= 0.0031308 {
		return 12.92 * v
	}
	return 1.055*math.Pow(v, 1/2.4) - 0.055
}

// Linearize converts a gamma-encoded sRGB color to linear RGB.
func (c RGB) Linearize() RGB {
	return RGB{SRGBToLinear(c.R), SRGBToLinear(c.G), SRGBToLinear(c.B)}
}

// Delinearize converts a linear RGB color to gamma-encoded sRGB.
func (c RGB) Delinearize() RGB {
	return RGB{LinearToSRGB(c.R), LinearToSRGB(c.G), LinearToSRGB(c.B)}
}

// --- linear RGB <-> XYZ (sRGB primaries, D65 white) ---

// sRGB/D65 matrices (IEC 61966-2-1).
var (
	rgbToXYZ = [3][3]float64{
		{0.4124564, 0.3575761, 0.1804375},
		{0.2126729, 0.7151522, 0.0721750},
		{0.0193339, 0.1191920, 0.9503041},
	}
	xyzToRGB = [3][3]float64{
		{3.2404542, -1.5371385, -0.4985314},
		{-0.9692660, 1.8760108, 0.0415560},
		{0.0556434, -0.2040259, 1.0572252},
	}
)

// LinearRGBToXYZ converts a linear RGB color (sRGB primaries, D65) to
// CIE XYZ.
func LinearRGBToXYZ(c RGB) XYZ {
	return XYZ{
		X: rgbToXYZ[0][0]*c.R + rgbToXYZ[0][1]*c.G + rgbToXYZ[0][2]*c.B,
		Y: rgbToXYZ[1][0]*c.R + rgbToXYZ[1][1]*c.G + rgbToXYZ[1][2]*c.B,
		Z: rgbToXYZ[2][0]*c.R + rgbToXYZ[2][1]*c.G + rgbToXYZ[2][2]*c.B,
	}
}

// XYZToLinearRGB converts CIE XYZ to linear RGB (sRGB primaries, D65).
// Out-of-gamut colors produce components outside [0, 1].
func XYZToLinearRGB(c XYZ) RGB {
	return RGB{
		R: xyzToRGB[0][0]*c.X + xyzToRGB[0][1]*c.Y + xyzToRGB[0][2]*c.Z,
		G: xyzToRGB[1][0]*c.X + xyzToRGB[1][1]*c.Y + xyzToRGB[1][2]*c.Z,
		B: xyzToRGB[2][0]*c.X + xyzToRGB[2][1]*c.Y + xyzToRGB[2][2]*c.Z,
	}
}

// --- XYZ <-> Lab ---

const (
	labEps   = 216.0 / 24389.0 // (6/29)^3
	labKappa = 24389.0 / 27.0  // (29/3)^3
)

func labF(t float64) float64 {
	if t > labEps {
		return math.Cbrt(t)
	}
	return (labKappa*t + 16) / 116
}

func labFInv(t float64) float64 {
	if t3 := t * t * t; t3 > labEps {
		return t3
	}
	return (116*t - 16) / labKappa
}

// XYZToLab converts XYZ to CIELab relative to the given white point.
func XYZToLab(c XYZ, white XYZ) Lab {
	fx := labF(c.X / white.X)
	fy := labF(c.Y / white.Y)
	fz := labF(c.Z / white.Z)
	return Lab{
		L: 116*fy - 16,
		A: 500 * (fx - fy),
		B: 200 * (fy - fz),
	}
}

// LabToXYZ converts CIELab back to XYZ relative to the given white
// point.
func LabToXYZ(c Lab, white XYZ) XYZ {
	fy := (c.L + 16) / 116
	fx := fy + c.A/500
	fz := fy - c.B/200
	return XYZ{
		X: white.X * labFInv(fx),
		Y: white.Y * labFInv(fy),
		Z: white.Z * labFInv(fz),
	}
}

// LinearRGBToLab is the composed conversion the receiver applies to
// every pixel: linear RGB → XYZ → Lab (D65 white).
func LinearRGBToLab(c RGB) Lab {
	return XYZToLab(LinearRGBToXYZ(c), D65)
}

func clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	}
	return v
}

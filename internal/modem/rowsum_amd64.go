//go:build amd64

package modem

import "colorbars/internal/colorspace"

// sumPix12 sums the R, G and B channels of groups*4 consecutive
// pixels starting at p (groups ≥ 1) with SSE2 packed adds, in exactly
// sumPix12Go's association order.
//
//go:noescape
func sumPix12(p *colorspace.RGB, groups int) (sr, sg, sb float64)

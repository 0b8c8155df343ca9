//go:build !amd64

package modem

import "colorbars/internal/colorspace"

// sumPix12 runs the portable kernel where no assembly kernel exists.
func sumPix12(p *colorspace.RGB, groups int) (sr, sg, sb float64) {
	return sumPix12Go(p, groups)
}

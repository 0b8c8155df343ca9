package modem

import (
	"unsafe"

	"colorbars/internal/colorspace"
)

// The row-sum kernels index raw struct memory, so the colorspace.RGB
// layout they assume — three consecutive float64 fields R, G, B — is
// pinned at compile time.
var (
	_ [unsafe.Sizeof(colorspace.RGB{}) - 24]byte
	_ [24 - unsafe.Sizeof(colorspace.RGB{})]byte
	_ [unsafe.Offsetof(colorspace.RGB{}.G) - 8]byte
	_ [unsafe.Offsetof(colorspace.RGB{}.B) - 16]byte
)

// rowSum returns the R, G and B channel sums of one scanline: sumPix12
// over the largest multiple-of-4 prefix, then the 0–3 tail pixels in
// order. sumPix12 is bit-identical to sumPix12Go, so the sums do not
// depend on the build target.
func rowSum(row []colorspace.RGB) (sr, sg, sb float64) {
	groups := len(row) / 4
	if groups > 0 {
		sr, sg, sb = sumPix12(&row[0], groups)
	}
	for _, p := range row[groups*4:] {
		sr += p.R
		sg += p.G
		sb += p.B
	}
	return sr, sg, sb
}

// sumPix12Go is the portable row-sum kernel: channel sums over
// groups*4 consecutive pixels. A group of 4 pixels is 12 floats, so
// twelve lane accumulators each keep a fixed channel phase; lanes k
// and k+6 fold first (the packed kernel's six two-wide registers),
// then the two partial sums per channel combine. This is the exact
// association order of the amd64 assembly, so the two are
// bit-for-bit interchangeable.
func sumPix12Go(p *colorspace.RGB, groups int) (sr, sg, sb float64) {
	flat := unsafe.Slice((*float64)(unsafe.Pointer(p)), groups*12)
	var l [12]float64
	for i := 0; i+11 < len(flat); i += 12 {
		for k := 0; k < 12; k++ {
			l[k] += flat[i+k]
		}
	}
	sr = (l[0] + l[6]) + (l[3] + l[9])
	sg = (l[1] + l[7]) + (l[4] + l[10])
	sb = (l[2] + l[8]) + (l[5] + l[11])
	return sr, sg, sb
}

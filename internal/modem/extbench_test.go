package modem

import (
	"testing"

	"colorbars/internal/csk"
)

func BenchmarkExtractPlanes(b *testing.B) {
	_, frames := allocLink(b, csk.CSK8, 2000)
	s := getScratch(frames[0].Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.extractPlanes(frames[i%len(frames)])
	}
}

func BenchmarkSumPix12PerRow(b *testing.B) {
	_, frames := allocLink(b, csk.CSK8, 2000)
	s := getScratch(frames[0].Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := frames[i%len(frames)]
		groups := f.Cols / 4
		// The Lab planes serve only as the store sink here.
		for r := 0; r < f.Rows; r++ {
			s.l[r], s.a[r], s.bb[r] = sumPix12(&f.Pix[r*f.Cols], groups)
		}
	}
}

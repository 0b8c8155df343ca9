package camera

import (
	"math"
	"sync"
)

// adc evaluates the sensor's tone curve and ADC, round(x^γ·max)/max
// for a channel value x, by counting thresholds instead of calling
// math.Pow.
//
// Both stages are monotone in x for γ > 0, so the output is level k
// exactly when x reaches the k-th threshold t_k = ((k−½)/max)^(1/γ)
// but not the next: the level is the number of thresholds, k = 1..max,
// at or below x. thresh holds them between two sentinels, thresh[0] =
// −Inf and thresh[max+1] = +Inf; level 0 has no lower threshold, so a
// blacked-out pixel (x = 0) is an ordinary fast-path value.
//
// bucket splits [0, 1] into adcBuckets equal buckets. A bucket with no
// threshold in it or within adcEps of its edges maps every x in it to
// one output, k/max, stored as is; that is 97% of them at 8 bits. Any
// other bucket stores −(k+1) for the level k at its left edge, and
// quantize steps up from k to the bracketing pair of thresholds.
//
// The thresholds are themselves rounded Pow results, and math.Pow is
// not correctly rounded, so right at a threshold the tables and the
// formula may disagree. quantize therefore sends x within adcEps of a
// threshold to the formula itself. That margin is about 10⁷ ulps at
// x = 1; the formula's own rounding error, a few ulps of x^γ·max, is
// orders of magnitude smaller than the distance from k−½ that such a
// margin guarantees for the exponents and depths in use, so every
// other x gets the formula's answer. Values outside [0, 1] (negative
// zero, NaN, overflow) also take the formula. adc_test.go checks the
// agreement bit for bit, at and around every threshold.
type adc struct {
	gamma, maxLevel float64
	// tableEnd bounds the bit patterns the tables cover: those of
	// [0, 1] (non-negative floats order like their bits; -0 and NaN
	// compare above), or none for γ = 1, where toneADC has no Pow to
	// save and the tables are nil.
	tableEnd uint64
	thresh   []float64 // sentinel, t_1..t_max, sentinel
	bucket   []float64 // output k/max, or −(k+1) near a threshold
}

const (
	// adcBuckets is a power of two, so x·adcBuckets is exact and the
	// bucket of x never starts above x.
	adcBuckets = 8192
	adcEps     = 1e-9
)

// quantize returns round(x^γ·max)/max, bit-identical to toneADC. The
// common case is one table lookup.
func (q *adc) quantize(x float64) float64 {
	if math.Float64bits(x) < q.tableEnd {
		v := q.bucket[int(x*adcBuckets)]
		if v >= 0 {
			return v
		}
		k := int(-v) - 1
		for x >= q.thresh[k+1] {
			k++
		}
		if x-q.thresh[k] >= adcEps && q.thresh[k+1]-x >= adcEps {
			return float64(k) / q.maxLevel
		}
	}
	return toneADC(x, q.gamma, q.maxLevel)
}

// toneADC is the tone curve and ADC evaluated directly, the exact
// definition quantize reproduces. Without a tone curve (γ = 1) it is
// one rounding and needs no tables.
func toneADC(x, gamma, maxLevel float64) float64 {
	if gamma != 1 {
		x = math.Pow(x, gamma)
	}
	return math.Round(x*maxLevel) / maxLevel
}

type adcKey struct {
	gamma float64
	bits  int
}

// adcCache memoizes quantizers so that every camera with one (γ, bits)
// shares one set of tables. The tables are a pure function of the key
// and never change once built, so sharing cannot change a result.
var (
	adcMu    sync.Mutex
	adcCache = map[adcKey]*adc{}
)

// adcFor returns the shared quantizer for tone exponent gamma (> 0)
// and an ADC of the given depth, building its tables on first use.
func adcFor(gamma float64, bits int) *adc {
	adcMu.Lock()
	defer adcMu.Unlock()
	key := adcKey{gamma, bits}
	if q, ok := adcCache[key]; ok {
		return q
	}
	q := newADC(gamma, bits)
	adcCache[key] = q
	return q
}

func newADC(gamma float64, bits int) *adc {
	n := 1<<bits - 1
	maxLevel := float64(n)
	q := &adc{gamma: gamma, maxLevel: maxLevel}
	if gamma == 1 {
		return q
	}
	q.tableEnd = math.Float64bits(1) + 1
	q.thresh = make([]float64, n+2)
	q.bucket = make([]float64, adcBuckets+1)
	q.thresh[0] = math.Inf(-1)
	for k := 1; k <= n; k++ {
		q.thresh[k] = math.Pow((float64(k)-0.5)/maxLevel, 1/gamma)
	}
	q.thresh[n+1] = math.Inf(1)
	k := 0
	for b := range q.bucket {
		lo, hi := float64(b)/adcBuckets, float64(b+1)/adcBuckets
		for lo >= q.thresh[k+1] {
			k++
		}
		if lo-q.thresh[k] >= adcEps && q.thresh[k+1]-hi >= adcEps {
			q.bucket[b] = float64(k) / maxLevel
		} else {
			q.bucket[b] = -float64(k + 1)
		}
	}
	return q
}

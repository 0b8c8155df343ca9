// Package rs implements Reed-Solomon error-correction codes over
// GF(2^8), the coding scheme ColorBars uses to recover symbols lost in
// the camera's inter-frame gap (paper §5).
//
// An RS(n, k) code protects k data bytes with n−k parity bytes and can
// correct up to t = (n−k)/2 byte errors at unknown positions, or up to
// n−k erasures at known positions, or any mix with
// 2·errors + erasures ≤ n−k. ColorBars exploits the erasure case: the
// packet header carries the packet size, so the receiver knows exactly
// how many symbols the inter-frame gap swallowed and where, and can
// declare those positions erased — doubling the recoverable loss
// compared to blind error correction.
//
// The decoder implements the textbook pipeline: syndrome computation,
// Berlekamp–Massey (with erasure initialization via the Forney
// variant), Chien search, and Forney's algorithm for error magnitudes.
package rs

import (
	"errors"
	"fmt"

	"colorbars/internal/gf256"
)

// ErrTooManyErrors is returned when the corruption exceeds the code's
// correction capability or decoding is otherwise inconsistent.
var ErrTooManyErrors = errors.New("rs: too many errors to correct")

// Code is an RS(n, k) code. The zero value is not usable; use New.
type Code struct {
	n, k int
	gen  []byte // generator polynomial, degree n-k
}

// New returns an RS(n, k) code over GF(2^8). n must be in (k, 255]
// and k must be positive.
func New(n, k int) (*Code, error) {
	if k <= 0 || n <= k || n > 255 {
		return nil, fmt.Errorf("rs: invalid parameters n=%d k=%d (need 0 < k < n <= 255)", n, k)
	}
	gen := []byte{1}
	for i := 0; i < n-k; i++ {
		gen = gf256.PolyMul(gen, []byte{1, gf256.Exp(i)})
	}
	return &Code{n: n, k: k, gen: gen}, nil
}

// MustNew is New, panicking on invalid parameters. For package-level
// variables and tests.
func MustNew(n, k int) *Code {
	c, err := New(n, k)
	if err != nil {
		panic(err)
	}
	return c
}

// N returns the codeword length in bytes.
func (c *Code) N() int { return c.n }

// K returns the number of data bytes per codeword.
func (c *Code) K() int { return c.k }

// ParityBytes returns n − k.
func (c *Code) ParityBytes() int { return c.n - c.k }

// CorrectableErrors returns t = (n−k)/2, the number of byte errors at
// unknown positions the code can fix.
func (c *Code) CorrectableErrors() int { return (c.n - c.k) / 2 }

// Encode appends n−k parity bytes to the k data bytes and returns the
// n-byte systematic codeword. len(data) must equal K().
func (c *Code) Encode(data []byte) ([]byte, error) {
	if len(data) != c.k {
		return nil, fmt.Errorf("rs: data length %d, want %d", len(data), c.k)
	}
	// Systematic encoding: codeword = data·x^(n−k) + remainder.
	padded := make([]byte, c.n)
	copy(padded, data)
	_, rem := gf256.PolyDivMod(padded, c.gen)
	out := make([]byte, c.n)
	copy(out, data)
	copy(out[c.n-len(rem):], rem)
	return out, nil
}

// EncodeInto is Encode writing the codeword into dst (reallocated only
// when its capacity is short), for callers that reuse a buffer across
// blocks. Parity is computed by LFSR-style synthetic division against
// the monic generator, which is algebraically the remainder
// data·x^(n−k) mod gen — the same value Encode computes via
// PolyDivMod.
func (c *Code) EncodeInto(dst, data []byte) ([]byte, error) {
	if len(data) != c.k {
		return nil, fmt.Errorf("rs: data length %d, want %d", len(data), c.k)
	}
	if cap(dst) < c.n {
		dst = make([]byte, c.n)
	}
	dst = dst[:c.n]
	copy(dst, data)
	rem := dst[c.k:]
	for i := range rem {
		rem[i] = 0
	}
	for i := 0; i < c.k; i++ {
		fb := data[i] ^ rem[0]
		copy(rem, rem[1:])
		rem[len(rem)-1] = 0
		if fb != 0 {
			// gen[0] is 1 (monic); gen[1:] multiplies the feedback.
			for j := range rem {
				rem[j] ^= gf256.Mul(c.gen[j+1], fb)
			}
		}
	}
	return dst, nil
}

// Decode corrects a received codeword in place and returns the k data
// bytes. erasures lists known-bad positions (0-based indexes into the
// codeword); pass nil when none are known. The codeword slice is
// modified to hold the corrected codeword.
//
// Decode runs the pipeline through a throwaway Decoder; callers on a
// hot path should hold their own Decoder (NewDecoder) to reuse its
// scratch across calls. The erasure-position order does not affect
// the result: the erasure locator is a product over positions, and
// GF(2^8) multiplication is commutative and exact.
func (c *Code) Decode(codeword []byte, erasures []int) ([]byte, error) {
	return c.NewDecoder().Decode(codeword, erasures)
}

// syndromes returns S_j = r(α^j) for j in [0, n−k).
func (c *Code) syndromes(codeword []byte) []byte {
	synd := make([]byte, c.n-c.k)
	for j := range synd {
		synd[j] = gf256.PolyEval(codeword, gf256.Exp(j))
	}
	return synd
}

// berlekampMassey finds the error-locator polynomial (lowest degree
// first: σ(x) = 1 + σ1·x + …) from the (modified) syndromes. numEras
// erasures have already been accounted for; the number of additional
// errors ν must satisfy 2ν + numEras ≤ 2t.
func berlekampMassey(synd []byte, numEras, twoT int) ([]byte, error) {
	sigma := []byte{1}
	prev := []byte{1}
	var l int
	var m = 1
	var b byte = 1
	for i := 0; i < twoT-numEras; i++ {
		n := i + numEras
		// Discrepancy δ = S_n + Σ σ_j · S_{n−j}.
		delta := synd[n]
		for j := 1; j <= l && j < len(sigma); j++ {
			delta ^= gf256.Mul(sigma[j], synd[n-j])
		}
		if delta == 0 {
			m++
			continue
		}
		if 2*l <= i {
			tmp := append([]byte(nil), sigma...)
			coef := gf256.Div(delta, b)
			sigma = polySubShifted(sigma, prev, coef, m)
			prev = tmp
			l = i + 1 - l
			b = delta
			m = 1
		} else {
			coef := gf256.Div(delta, b)
			sigma = polySubShifted(sigma, prev, coef, m)
			m++
		}
	}
	// Degree check: locator degree must equal l and fit capability.
	deg := len(sigma) - 1
	for deg > 0 && sigma[deg] == 0 {
		deg--
	}
	if 2*deg+numEras > twoT {
		return nil, ErrTooManyErrors
	}
	return sigma[:deg+1], nil
}

// polySubShifted returns sigma − coef·x^shift·prev with lowest-first
// ordering (subtraction is XOR).
func polySubShifted(sigma, prev []byte, coef byte, shift int) []byte {
	out := make([]byte, max(len(sigma), len(prev)+shift))
	copy(out, sigma)
	for i, c := range prev {
		out[i+shift] ^= gf256.Mul(c, coef)
	}
	return out
}

// chienSearch finds codeword positions whose locator roots match.
// loc is lowest-degree-first. Returns positions sorted ascending.
func (c *Code) chienSearch(loc []byte) ([]int, error) {
	deg := len(loc) - 1
	for deg > 0 && loc[deg] == 0 {
		deg--
	}
	loc = loc[:deg+1]
	var positions []int
	for i := 0; i < c.n; i++ {
		// Position i has locator X_i = α^(n−1−i); it is an error
		// position iff σ(X_i^{-1}) == 0.
		xInv := gf256.Exp(-(c.n - 1 - i))
		var v byte
		for j := deg; j >= 0; j-- {
			v = gf256.Mul(v, xInv) ^ loc[j]
		}
		if v == 0 {
			positions = append(positions, i)
		}
	}
	if len(positions) != deg {
		return nil, ErrTooManyErrors
	}
	return positions, nil
}

// forneyCorrect computes error magnitudes with Forney's algorithm and
// repairs the codeword in place.
func (c *Code) forneyCorrect(codeword, synd, loc []byte, positions []int) error {
	// Error evaluator Ω(x) = S(x)·σ(x) mod x^(2t), lowest-first.
	twoT := c.n - c.k
	omega := make([]byte, twoT)
	for i := 0; i < twoT; i++ {
		var s byte
		for j := 0; j < len(loc) && j <= i; j++ {
			s ^= gf256.Mul(loc[j], synd[i-j])
		}
		omega[i] = s
	}
	// Formal derivative σ'(x): odd-power coefficients shifted down.
	deriv := make([]byte, 0, len(loc)/2)
	for i := 1; i < len(loc); i += 2 {
		deriv = append(deriv, loc[i])
	}
	for _, pos := range positions {
		x := gf256.Exp(c.n - 1 - pos)
		xInv := gf256.Inv(x)
		// Ω(X^{-1})
		var num byte
		for i := len(omega) - 1; i >= 0; i-- {
			num = gf256.Mul(num, xInv) ^ omega[i]
		}
		// σ'(X^{-1}) — derivative has only even powers of xInv left:
		// σ'(x) evaluated at xInv over the compacted coefficients uses
		// xInv^2 steps.
		x2 := gf256.Mul(xInv, xInv)
		var den byte
		for i := len(deriv) - 1; i >= 0; i-- {
			den = gf256.Mul(den, x2) ^ deriv[i]
		}
		if den == 0 {
			return ErrTooManyErrors
		}
		mag := gf256.Mul(num, gf256.Inv(den))
		// Forney: e = X·Ω(X^{-1})/σ'(X^{-1}) for the b=0 syndrome
		// convention (first consecutive root α^0).
		mag = gf256.Mul(mag, x)
		codeword[pos] ^= mag
	}
	return nil
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

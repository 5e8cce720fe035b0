package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// hist is a log-linear latency histogram over nanoseconds: values below
// 256 ns land in exact one-nanosecond buckets, larger values in one of 128
// equal sub-buckets of their power of two, so every bucket is narrower than
// 1/128 of its values. Its size is fixed, so recording costs no allocation
// and the benchmark's own heap does not grow with the program's speed.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// histMaxExp caps recorded values below 2^41 ns (about 36 minutes).
	histMaxExp  = 40
	histBuckets = (histMaxExp - histSubBits + 2) * histSub
)

func histIndex(v uint64) int {
	if v >= 1<<(histMaxExp+1) {
		v = 1<<(histMaxExp+1) - 1
	}
	if v < 2*histSub {
		return int(v)
	}
	shift := bits.Len64(v) - 1 - histSubBits
	return (shift+1)*histSub + int(v>>shift) - histSub
}

// histBounds returns bucket i's lowest value and width.
func histBounds(i int) (lo, width float64) {
	if i < 2*histSub {
		return float64(i), 1
	}
	shift := i/histSub - 1
	mant := uint64(i%histSub + histSub)
	return float64(mant << shift), float64(uint64(1) << shift)
}

func (h *hist) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histIndex(uint64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolating by rank
// inside the bucket that holds it; NaN when the histogram is empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < cum+float64(c) {
			lo, w := histBounds(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := histBounds(histBuckets - 1)
	return lo + w
}

// median returns the middle of xs (the mean of the two middle values for
// an even count), ignoring NaNs; NaN when nothing is left.
func median(xs []float64) float64 {
	v := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			v = append(v, x)
		}
	}
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}

// rate converts a count over a duration into events per second.
func rate(n uint64, d time.Duration) float64 {
	if d <= 0 {
		return math.NaN()
	}
	return float64(n) / d.Seconds()
}

// ratio is num/den, NaN for a zero denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

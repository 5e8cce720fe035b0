package obs

import (
	"math/bits"
	"sync/atomic"
	"time"

	"ringlwe/internal/cacheline"
)

// NumBuckets is the fixed bucket count of every Histogram: bucket 0
// holds zero values and bucket i ≥ 1 holds values in [2^(i-1), 2^i), so
// the buckets are log-spaced with one bucket per power of two. In the
// microsecond unit the latency histograms use, the top regular bucket
// ends at 2^26 µs ≈ 67 s and the final bucket is the +Inf overflow.
const NumBuckets = 28

// bucketOf maps a value to its bucket: the value's bit length, clamped
// into the overflow bucket.
func bucketOf(v uint64) int {
	i := bits.Len64(v)
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	return i
}

// BucketBounds returns bucket i's inclusive value range ([0,0] for the
// zero bucket; the overflow bucket's upper bound is the maximum uint64).
func BucketBounds(i int) (lo, hi uint64) {
	if i <= 0 {
		return 0, 0
	}
	lo = uint64(1) << (i - 1)
	if i >= NumBuckets-1 {
		return lo, ^uint64(0)
	}
	return lo, uint64(1)<<i - 1
}

// histSlot is one shard's share of a histogram. The bucket array plus
// the three summary words fill 248 bytes; the pad rounds the slot to an
// exact four cache lines so adjacent shards never share one.
type histSlot struct {
	buckets [NumBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	_       [4*cacheline.Size - (NumBuckets+3)*8]byte
}

// Histogram is a fixed-bucket log2 histogram with per-shard padded
// slots: Observe touches only the caller's shard (three atomic adds and
// a max CAS, 0 allocs/op) and Snapshot merges the slots on read. The
// unit is the caller's — the protocol layer records microseconds via
// ObserveDuration and raw batch sizes via Observe.
type Histogram struct {
	slots []histSlot
}

// NewHistogram builds an unregistered histogram with one padded slot
// per shard. Registry.Histogram is the usual constructor.
func NewHistogram(shards int) *Histogram {
	if shards < 1 {
		shards = 1
	}
	return &Histogram{slots: make([]histSlot, shards)}
}

// Observe records one value into the shard's slot.
func (h *Histogram) Observe(shard int, v uint64) {
	s := &h.slots[uint(shard)%uint(len(h.slots))]
	s.buckets[bucketOf(v)].Add(1)
	s.count.Add(1)
	s.sum.Add(v)
	for {
		old := s.max.Load()
		if v <= old || s.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// ObserveDuration records a duration in microseconds (negative
// durations clamp to zero).
func (h *Histogram) ObserveDuration(shard int, d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	h.Observe(shard, uint64(us))
}

// Snapshot merges the per-shard slots into a consistent-enough
// point-in-time view (each word is loaded atomically; the slots are
// not frozen against concurrent writers, as usual for scrapes).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.slots {
		sl := &h.slots[i]
		for b := range sl.buckets {
			s.Buckets[b] += sl.buckets[b].Load()
		}
		s.Count += sl.count.Load()
		s.Sum += sl.sum.Load()
		if m := sl.max.Load(); m > s.Max {
			s.Max = m
		}
	}
	return s
}

// HistogramSnapshot is a merged histogram state: per-bucket counts plus
// the summary words percentiles derive from.
type HistogramSnapshot struct {
	Buckets [NumBuckets]uint64
	Count   uint64
	Sum     uint64
	Max     uint64
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by walking the bucket
// counts and interpolating linearly inside the target bucket; the
// overflow bucket interpolates toward the recorded maximum, so Max and
// high quantiles stay meaningful even for outliers. An empty snapshot
// returns 0.
func (s *HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := uint64(q * float64(s.Count))
	if target >= s.Count {
		target = s.Count - 1
	}
	var cum uint64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if target < cum+n {
			lo, hi := BucketBounds(i)
			if i == NumBuckets-1 || hi > s.Max {
				hi = s.Max
			}
			if hi <= lo {
				return lo
			}
			frac := float64(target-cum) / float64(n)
			return lo + uint64(frac*float64(hi-lo))
		}
		cum += n
	}
	return s.Max
}

// Mean returns the snapshot's average value (0 when empty).
func (s *HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

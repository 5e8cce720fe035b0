// Package obs is the serving stack's observability core: a metrics
// registry of atomic counters, gauges and fixed-bucket latency
// histograms, plus a lightweight trace-hook seam (Tracer) for
// per-connection handshake spans.
//
// Every metric is built for write-heavy concurrent use on serving hot
// paths: a metric owns one padded slot per shard, writers touch only
// their shard's slot (no shared cache line between shards, no locks, no
// allocation), and readers merge the slots with atomic loads when a
// snapshot or scrape asks for them. Counter.Inc and Histogram.Observe
// are 0 allocs/op; the registry's maps and exposition code run only on
// the scrape path.
//
// The Registry renders itself as Prometheus text exposition
// (WritePrometheus) and as an expvar-style JSON object (WriteJSON), so
// one registry backs both a /metrics scrape target and a /debug/vars
// page.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"ringlwe/internal/cacheline"
)

// Labels is a metric instance's constant label set (e.g. params="P1",
// path="full"). Instances of one family are distinguished by their
// rendered, key-sorted label string.
type Labels map[string]string

// render writes the label set in Prometheus form, keys sorted, values
// escaped — the canonical instance key within a family.
func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, escapeLabel(l[k]))
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies the Prometheus label-value escapes; %q above then
// adds the surrounding quotes and escapes the backslashes and quotes
// this introduces, so only newlines need rewriting here.
func escapeLabel(v string) string {
	return strings.ReplaceAll(v, "\n", `\n`)
}

// counterSlot is one shard's share of a counter, padded out to a full
// cache line so adjacent shards never write the same line.
type counterSlot struct {
	v atomic.Uint64
	_ [cacheline.Size - 8]byte
}

// Counter is a monotonic per-shard counter. Writers call Inc/Add with
// their shard index and never contend; Value merges the slots.
type Counter struct {
	slots []counterSlot
}

// NewCounter builds an unregistered counter with one padded slot per
// shard (shards below 1 become 1). Registry.Counter is the usual
// constructor.
func NewCounter(shards int) *Counter {
	if shards < 1 {
		shards = 1
	}
	return &Counter{slots: make([]counterSlot, shards)}
}

// Inc adds one to the shard's slot. Shard indexes out of range wrap, so
// a caller with more writers than slots degrades to sharing instead of
// faulting.
func (c *Counter) Inc(shard int) { c.Add(shard, 1) }

// Add adds n to the shard's slot.
func (c *Counter) Add(shard int, n uint64) {
	c.slots[uint(shard)%uint(len(c.slots))].v.Add(n)
}

// Value returns the counter's merged total.
func (c *Counter) Value() uint64 {
	var sum uint64
	for i := range c.slots {
		sum += c.slots[i].v.Load()
	}
	return sum
}

// gaugeSlot is one shard's share of a gauge, cache-line padded like
// counterSlot.
type gaugeSlot struct {
	v atomic.Int64
	_ [cacheline.Size - 8]byte
}

// Gauge is a per-shard signed gauge for level-style values (active
// channels, queue depth): writers add deltas to their shard's slot and
// Value merges them.
type Gauge struct {
	slots []gaugeSlot
}

// NewGauge builds an unregistered gauge with one padded slot per shard.
func NewGauge(shards int) *Gauge {
	if shards < 1 {
		shards = 1
	}
	return &Gauge{slots: make([]gaugeSlot, shards)}
}

// Add applies a delta to the shard's slot.
func (g *Gauge) Add(shard int, delta int64) {
	g.slots[uint(shard)%uint(len(g.slots))].v.Add(delta)
}

// Inc adds one to the shard's slot.
func (g *Gauge) Inc(shard int) { g.Add(shard, 1) }

// Dec subtracts one from the shard's slot.
func (g *Gauge) Dec(shard int) { g.Add(shard, -1) }

// Value returns the gauge's merged level.
func (g *Gauge) Value() int64 {
	var sum int64
	for i := range g.slots {
		sum += g.slots[i].v.Load()
	}
	return sum
}

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ringlwe/internal/obs"
)

// The traced run records spans around every call the benchmark makes into
// a layer, plus the spans the protocol layer reports through its tracer
// hooks. A span has a name, a start and end (nanoseconds since the
// tracer's base), its own id, its parent's id and the id of the request
// (root span) it belongs to. A span's self time is its duration minus the
// part of it that its children cover.
//
// Each client goroutine owns a lane, so client spans are recorded without
// locks; the protocol layer's client hooks run inline on that goroutine
// and become children of the lane's innermost open span. obs.Span carries
// only a duration, so a hook's span ends when the hook fires and starts
// that long before. Server spans arrive on the server's goroutines, belong
// to no client request, and are aggregated by name under one lock.

// spanRec is one completed span as written out.
type spanRec struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Conn   uint64 `json:"conn,omitempty"`
}

// nameAgg aggregates every span of one name.
type nameAgg struct {
	dur, self hist
}

// spanCap bounds the spans a traced run keeps for writing out; beyond it
// spans are still aggregated but not kept.
const spanCap = 20000

type tracer struct {
	base time.Time
	on   atomic.Bool
	ids  atomic.Uint64

	lanes []*lane

	mu         sync.Mutex
	server     map[string]*nameAgg
	serverKept []spanRec
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), server: map[string]*nameAgg{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// lane returns client i's lane, creating lanes up to i; nil for a nil
// tracer.
func (t *tracer) lane(i int) *lane {
	if t == nil {
		return nil
	}
	for len(t.lanes) <= i {
		t.lanes = append(t.lanes, &lane{t: t, aggs: map[string]*nameAgg{}})
	}
	return t.lanes[i]
}

// serverHook is the protocol.WithTracer hook: it aggregates server spans
// while the tracer is on.
func (t *tracer) serverHook() obs.Tracer {
	return obs.TracerFunc(func(s obs.Span) {
		if !t.on.Load() {
			return
		}
		end := t.now()
		r := spanRec{Name: "server." + s.Phase.String(), Start: end - int64(s.Dur), End: end,
			Self: int64(s.Dur), ID: t.ids.Add(1), Conn: s.Conn}
		t.mu.Lock()
		a := t.server[r.Name]
		if a == nil {
			a = &nameAgg{}
			t.server[r.Name] = a
		}
		a.dur.add(s.Dur)
		a.self.add(s.Dur)
		if len(t.serverKept) < spanCap/4 {
			t.serverKept = append(t.serverKept, r)
		}
		t.mu.Unlock()
	})
}

// clientHook is the protocol.WithHandshakeTracer hook for a connection
// driven by lane l. It is created per connection and records only while
// the tracer is on, so handshakes made during set-up leave no spans.
func (l *lane) clientHook() obs.Tracer {
	if l == nil {
		return nil
	}
	return obs.TracerFunc(l.onSpan)
}

// onSpan records a client protocol span while the tracer is on.
func (l *lane) onSpan(s obs.Span) {
	if l == nil || !l.t.on.Load() {
		return
	}
	end := l.t.now()
	l.complete("client."+s.Phase.String(), end-int64(s.Dur), end, s.Conn)
}

// open is a span that has begun but not ended, with the intervals its
// children covered so far.
type open struct {
	name  string
	id    uint64
	start int64
	kids  [][2]int64
}

// lane is one client goroutine's span recorder. A nil *lane records
// nothing, so untraced runs pay one nil check per span site.
type lane struct {
	t     *tracer
	stack []open
	aggs  map[string]*nameAgg
	kept  []spanRec

	rootDur, rootSelf int64 // summed over request (root) spans
}

// begin opens a span as a child of the innermost open span, or as a new
// request when none is open.
func (l *lane) begin(name string) {
	if l == nil {
		return
	}
	l.stack = append(l.stack, open{name: name, id: l.t.ids.Add(1), start: l.t.now(), kids: l.spare()})
}

// spare reuses the kids buffer of a previously popped stack slot.
func (l *lane) spare() [][2]int64 {
	if n := len(l.stack); n < cap(l.stack) {
		return l.stack[:n+1][n].kids[:0]
	}
	return nil
}

// end closes the innermost open span.
func (l *lane) end() {
	if l == nil || len(l.stack) == 0 {
		return
	}
	top := &l.stack[len(l.stack)-1]
	end := l.t.now()
	self := (end - top.start) - covered(top.kids, top.start, end)
	name, id, start := top.name, top.id, top.start
	l.stack = l.stack[:len(l.stack)-1]
	if len(l.stack) == 0 {
		l.rootDur += end - start
		l.rootSelf += self
	}
	l.record(spanRec{Name: name, Start: start, End: end, Self: self, ID: id})
}

// complete records a span that arrived finished (a protocol hook) as a
// leaf child of the innermost open span.
func (l *lane) complete(name string, start, end int64, conn uint64) {
	l.record(spanRec{Name: name, Start: start, End: end, Self: end - start, ID: l.t.ids.Add(1), Conn: conn})
}

// record links r under the innermost open span, aggregates it and keeps it
// while there is room.
func (l *lane) record(r spanRec) {
	if n := len(l.stack); n > 0 {
		p := &l.stack[n-1]
		r.Parent = p.id
		r.Req = l.stack[0].id
		p.kids = append(p.kids, [2]int64{r.Start, r.End})
	} else {
		r.Req = r.ID
	}
	a := l.aggs[r.Name]
	if a == nil {
		a = &nameAgg{}
		l.aggs[r.Name] = a
	}
	a.dur.add(time.Duration(r.End - r.Start))
	a.self.add(time.Duration(r.Self))
	if len(l.kept) < spanCap/4 {
		l.kept = append(l.kept, r)
	}
}

// covered returns how much of [lo, hi] the union of the intervals covers.
// It sorts ivs in place.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// agg merges every lane's and the server's aggregate for name; nil when no
// span of that name was recorded.
func (t *tracer) agg(name string) *nameAgg {
	var out *nameAgg
	add := func(a *nameAgg) {
		if a == nil {
			return
		}
		if out == nil {
			out = &nameAgg{}
		}
		out.dur.merge(&a.dur)
		out.self.merge(&a.self)
	}
	for _, l := range t.lanes {
		add(l.aggs[name])
	}
	t.mu.Lock()
	add(t.server[name])
	t.mu.Unlock()
	return out
}

// p50us is the median duration of the spans with any of names, in
// microseconds; NaN when there were none.
func (t *tracer) p50us(names ...string) float64 {
	var h hist
	for _, n := range names {
		if a := t.agg(n); a != nil {
			h.merge(&a.dur)
		}
	}
	return h.quantile(0.5) / 1e3
}

// unattributed is the share of request time that no child span covers.
func (t *tracer) unattributed() float64 {
	var dur, self int64
	for _, l := range t.lanes {
		dur += l.rootDur
		self += l.rootSelf
	}
	return ratio(float64(self), float64(dur))
}

// write appends every kept span to path as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range t.lanes {
		for i := range l.kept {
			if err := enc.Encode(&l.kept[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.serverKept {
		if err := enc.Encode(&t.serverKept[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"sync/atomic"
	"time"

	"ringlwe/internal/obs"
)

// perLayer lists the per-layer metrics a traced run prints, with their
// units, in the order BENCHMARK.json declares them.
var perLayer = []struct{ name, unit string }{
	{"protocol.client.hello_us", "us"},
	{"protocol.client.negotiate_us", "us"},
	{"protocol.client.kem_flight_us", "us"},
	{"protocol.server.kem_flight_us", "us"},
	{"protocol.mem.hs_full_us", "us"},
	{"protocol.loopback.hs_full_us", "us"},
	{"protocol.socket_share.hs_full", "frac"},
	{"protocol.server.ticket_open_us", "us"},
	{"protocol.server.ticket_issue_us", "us"},
	{"protocol.mem.hs_resumed_us", "us"},
	{"protocol.loopback.hs_resumed_us", "us"},
	{"protocol.socket_share.hs_resumed", "frac"},
	{"protocol.ticket_fallback_frac", "frac"},
	{"protocol.client.record_encrypt_us", "us"},
	{"protocol.server.record_wait_us", "us"},
	{"protocol.mem.record_rtt_us.64B", "us"},
	{"protocol.mem.record_rtt_us.16KiB", "us"},
	{"protocol.mem.record_rtt_us.22KB", "us"},
	{"protocol.client.rekey_us", "us"},
	{"protocol.dial_us", "us"},
	{"protocol.kem_retries_per_full_hs", "ratio"},
	{"protocol.decap_batch_size_mean", "count"},
	{"protocol.decap_queue_depth_max", "count"},
	{"protocol.wire_bytes_per_op", "B"},
	{"agg.fold_us", "us"},
	{"agg.submit_private_p50_us", "us"},
	{"agg.submit_shared_p50_us", "us"},
	{"agg.rejects_frac", "frac"},
	{"agg.parse_share_of_submit", "frac"},
	{"ringlwe.parse_ct_us.b1", "us"},
	{"ringlwe.eval_add_us.b1", "us"},
	{"ringlwe.marshal_agg_us.b1", "us"},
	{"ringlwe.parse_agg_us.b1", "us"},
	{"ringlwe.parse_ct_us.p1", "us"},
	{"ringlwe.read_pk_us.p1", "us"},
	{"ringlwe.decap_fail_frac", "frac"},
	{"core.encrypt_us.p1", "us"},
	{"core.decrypt_us.p1", "us"},
	{"core.decrypt_us.b1", "us"},
	{"ntt.forward_us.p1", "us"},
	{"ntt.forward_three_us.p1", "us"},
	{"ntt.inverse_us.p1", "us"},
	{"ntt.pointwise_mul_us.p1", "us"},
	{"ntt.add_all_us.b1", "us"},
	{"ntt.inverse_all_us.b1", "us"},
	{"ntt.mul_all_us.b1", "us"},
	{"sampler.poly_us.p1", "us"},
	{"sampler.samples_per_encap", "count"},
	{"sampler.lut1_hit_frac", "frac"},
	{"rns.decode_us.b1", "us"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_cpu_frac", "frac"},
	{"trace.overhead_frac", "frac"},
	{"trace.unattributed_frac", "frac"},
}

// ledgerEnv is an env whose traffic feeds per-layer metrics in a traced
// run: mark snapshots the program's counters when the traced window
// starts, and ledger turns the window's spans and counter deltas into
// metrics.
type ledgerEnv interface {
	env
	mark()
	ledger(tr *tracer, rec *recorder) map[string]float64
}

// recordBytes is the record payload the server sealed and opened for one
// parameter set, both directions.
func recordBytes(reg *obs.Registry, params string) uint64 {
	var n uint64
	for _, dir := range []string{"sent", "recv"} {
		n += reg.Counter("rlwe_record_bytes_total", "", obs.Labels{"params": params, "dir": dir}, 1).Value()
	}
	return n
}

// since subtracts an earlier snapshot of the same histogram. Max stays the
// later snapshot's, which bounds the window's own maximum.
func since(now, then obs.HistogramSnapshot) obs.HistogramSnapshot {
	for i := range now.Buckets {
		now.Buckets[i] -= then.Buckets[i]
	}
	now.Count -= then.Count
	now.Sum -= then.Sum
	return now
}

func sumOps(rec *recorder) uint64 {
	var n uint64
	for _, v := range rec.ops {
		n += v
	}
	return n
}

// recordLedger adds the record-layer metrics both network workloads
// produce. Server record-decrypt spans start their clock before the
// blocking read, so they measure time spent waiting for the peer and are
// reported as such; record-crypto cost comes from the in-memory replay.
func recordLedger(m map[string]float64, tr *tracer, reg *obs.Registry, params string, bytes0 uint64, rec *recorder) {
	m["protocol.client.record_encrypt_us"] = tr.p50us("client.record-encrypt")
	m["protocol.server.record_wait_us"] = tr.p50us("server.record-decrypt")
	m["protocol.wire_bytes_per_op"] = ratio(float64(recordBytes(reg, params)-bytes0), float64(sumOps(rec)))
}

// channelMark is the channel env's window-start state.
type channelMark struct {
	hs, resumed, retries, fallbacks uint64
	bytes                           uint64
	batch                           obs.HistogramSnapshot
	depthMax                        atomic.Int64
	stop, done                      chan struct{}
}

func (e *channelEnv) mark() {
	s := e.srv.srv
	reg := s.Metrics()
	c := s.Stats().PerParams["P1"]
	m := &channelMark{hs: c.Handshakes, resumed: c.Resumed, retries: c.Retries, fallbacks: c.TicketFallbacks,
		bytes: recordBytes(reg, "P1"), batch: reg.Histogram("rlwe_decap_batch_size", "", nil, 1).Snapshot(),
		stop: make(chan struct{}), done: make(chan struct{})}
	e.mk = m
	// The queue-depth gauge holds only the current depth, so it is sampled
	// through the window.
	depth := reg.Gauge("rlwe_decap_queue_depth", "", nil, 1)
	go func() {
		defer close(m.done)
		t := time.NewTicker(500 * time.Microsecond)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				if v := depth.Value(); v > m.depthMax.Load() {
					m.depthMax.Store(v)
				}
			}
		}
	}()
}

func (e *channelEnv) ledger(tr *tracer, rec *recorder) map[string]float64 {
	mk := e.mk
	close(mk.stop)
	<-mk.done
	s := e.srv.srv
	reg := s.Metrics()
	c := s.Stats().PerParams["P1"]
	full := float64(c.Handshakes - mk.hs)
	resumed := float64(c.Resumed - mk.resumed)
	fallbacks := float64(c.TicketFallbacks - mk.fallbacks)
	batch := since(reg.Histogram("rlwe_decap_batch_size", "", nil, 1).Snapshot(), mk.batch)
	m := map[string]float64{
		"protocol.client.hello_us":         tr.p50us("client.hello"),
		"protocol.client.negotiate_us":     tr.p50us("client.negotiate"),
		"protocol.client.kem_flight_us":    tr.p50us("client.kem-flight"),
		"protocol.server.kem_flight_us":    tr.p50us("server.kem-flight"),
		"protocol.server.ticket_open_us":   tr.p50us("server.ticket-open"),
		"protocol.server.ticket_issue_us":  tr.p50us("server.ticket-issue"),
		"protocol.ticket_fallback_frac":    ratio(fallbacks, resumed+fallbacks),
		"protocol.client.rekey_us":         tr.p50us("client.rekey"),
		"protocol.dial_us":                 tr.p50us("dial"),
		"protocol.kem_retries_per_full_hs": ratio(float64(c.Retries-mk.retries), full),
		"protocol.decap_batch_size_mean":   batch.Mean(),
		"protocol.decap_queue_depth_max":   float64(mk.depthMax.Load()),
		"protocol.loopback.hs_full_us":     tr.p50us("hs.full"),
		"protocol.loopback.hs_resumed_us":  tr.p50us("hs.resumed"),
	}
	recordLedger(m, tr, reg, "P1", mk.bytes, rec)
	return m
}

// aggCounters is the agg engine's B1 counters in the server's registry.
type aggCounters struct {
	submits, queries, resets, rejects uint64
	fold                              obs.HistogramSnapshot
	bytes                             uint64
}

func (e *aggEnv) counters() aggCounters {
	reg := e.srv.srv.Metrics()
	name := e.params.Name()
	lab := obs.Labels{"params": name}
	ctr := func(n string) uint64 { return reg.Counter(n, "", lab, 1).Value() }
	return aggCounters{
		submits: ctr("rlwe_agg_submits_total"),
		queries: ctr("rlwe_agg_queries_total"),
		resets:  ctr("rlwe_agg_resets_total"),
		rejects: ctr("rlwe_agg_rejects_total"),
		fold:    reg.Histogram("rlwe_agg_fold_duration_us", "", lab, 1).Snapshot(),
		bytes:   recordBytes(reg, name),
	}
}

func (e *aggEnv) mark() { e.before = e.counters() }

func (e *aggEnv) ledger(tr *tracer, rec *recorder) map[string]float64 {
	a, b := e.counters(), e.before
	requests := (a.submits - b.submits) + (a.queries - b.queries) + (a.resets - b.resets) + (a.rejects - b.rejects)
	fold := since(a.fold, b.fold)
	m := map[string]float64{
		"agg.fold_us":               float64(fold.Quantile(0.5)),
		"agg.submit_private_p50_us": tr.p50us("submit.private"),
		"agg.submit_shared_p50_us":  tr.p50us("submit.shared"),
		"agg.rejects_frac":          ratio(float64(a.rejects-b.rejects), float64(requests)),
		submitSpanP50:               tr.p50us("submit.private", "submit.shared"),
	}
	recordLedger(m, tr, e.srv.srv.Metrics(), e.params.Name(), b.bytes, rec)
	return m
}

// submitSpanP50 carries the traced SUBMIT median to the parse-share
// figure; it is not printed.
const submitSpanP50 = "_agg.submit_us"

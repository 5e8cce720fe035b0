package protocol

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// DebugHandler returns the server's admin/debug endpoint, an
// http.Handler meant for a loopback or otherwise access-controlled
// listener (it exposes pprof):
//
//	/metrics      Prometheus text exposition of the metrics registry —
//	              per-path handshake counters and latency histograms,
//	              failure reasons, record/byte counters
//	/debug/vars   expvar-style JSON: the Stats() snapshot plus every
//	              registry metric (histograms as count/sum/max/mean and
//	              p50/p90/p99)
//	/debug/pprof  the standard net/http/pprof profile index
//	/healthz      200 "ok" liveness probe
//
// The rlwe-channel CLI serves it via the -debug-addr flag. Reads are
// lock-free merges of the per-shard metric slots, so scraping never
// stalls serving.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.debugVars())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("rlwe-channel debug endpoint\n\n/metrics\n/debug/vars\n/debug/pprof/\n/healthz\n"))
	})
	return mux
}

// debugVars assembles the /debug/vars document: the expvar-compatible
// Stats snapshot next to the full registry rendering.
func (s *Server) debugVars() map[string]json.RawMessage {
	stats, err := json.Marshal(s.Stats())
	if err != nil {
		stats = []byte("{}")
	}
	var metrics rawJSONBuffer
	if err := s.reg.WriteJSON(&metrics); err != nil {
		metrics.buf = []byte("{}")
	}
	return map[string]json.RawMessage{
		"rlwe_server": stats,
		"metrics":     metrics.buf,
	}
}

// rawJSONBuffer collects WriteJSON output for re-embedding as a
// json.RawMessage.
type rawJSONBuffer struct{ buf []byte }

func (b *rawJSONBuffer) Write(p []byte) (int, error) {
	b.buf = append(b.buf, p...)
	return len(p), nil
}

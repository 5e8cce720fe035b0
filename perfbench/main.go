// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the ringlwe program, imported and unmodified, checks
// every output, and prints its metrics as one JSON object on the last line
// of standard output:
//
//	perfbench --workload seal|channel|agg|all --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics: set-up CPU time (median
// of several set-ups), the warmed system's live heap, and the workload's
// operation rate scaled to a nominal host speed, the median over the
// twenty sub-windows less the ones the hypervisor stole from (see
// recorder.quiet and speed.go). A detail line before the result carries
// the workload's own figures (its unscaled rate and latency percentiles
// among them), sample counts and per-window counts, and a host line before
// that says where it ran. Latency percentiles are not end-to-end metrics: on a 2-vCPU host a
// SUBMIT's latency is bimodal, by whether client and server run on one
// processor or two, and its median jumped between the modes from run to
// run. With --trace 1 it prints the
// per-layer ledger instead: half the window runs untraced and half traced
// (their throughput ratio is the tracing overhead), the other workloads'
// traffic runs briefly for the layers this one does not reach, and each
// layer's public functions are timed directly. Build and run it through
// run.py, which builds it from the checkout's source.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"time"
)

// config is what every workload's set-up receives.
type config struct {
	seed    uint64
	clients int     // closed-loop clients, and server shards
	trace   *tracer // nil when untraced
}

// workload is one seeded traffic mix: its latency keys (keys[0] is the
// primary operation), its set-up, the workload-specific figures it
// reports beside the end-to-end metrics, and whether its traffic feeds
// the per-layer ledger.
type workload struct {
	name    string
	keys    []string
	setup   func(config) (env, error)
	detail  func(env, *recorder) map[string]float64
	traffic bool
}

var workloads = []workload{
	{"seal", sealKeys, setupSeal, sealDetail, false},
	{"channel", channelKeys, setupChannel, channelDetail, true},
	{"agg", aggKeys, setupAgg, aggDetail, true},
}

const (
	// subWindows splits every measured window; end-to-end figures are
	// medians over them.
	subWindows = 20
	// setupReps is how many times a run sets its workload up; setup_s is
	// the median, and the last set-up is the one measured.
	setupReps = 7
	// probeWindow is how long a traced run drives each other workload's
	// traffic for the layers its own workload does not reach.
	probeWindow = 2 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every workload reports, with
// their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
	{"norm_ops_s", "1/s"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "seal, channel, agg, or all")
	seed := fs.Uint64("seed", 1, "seed every input derives from")
	seconds := fs.Int("seconds", 30, "length of the measured window")
	trace := fs.Int("trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	spans := fs.String("spans", "", "directory the traced run writes its spans to")
	commit := fs.String("commit", "unknown", "commit of the program under test, for the host stamp")
	source := fs.String("source", "unknown", "digest of the program's source, for the host stamp")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var chosen []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload seal|channel|agg|all, --seconds ≥ 1 and --trace 0|1\n")
		return 2
	}
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	emit(out, map[string]any{"host": hostStamp(*name, *seed, *seconds, *trace, *commit, *source)})

	c := config{seed: *seed, clients: min(runtime.NumCPU(), runtime.GOMAXPROCS(0))}
	d := time.Duration(*seconds) * time.Second
	var results []*result
	for _, w := range chosen {
		var res *result
		var err error
		if *trace == 1 {
			res, err = traceRun(w, c, d, *spans)
		} else {
			res, err = endToEndRun(out, w, c, d)
		}
		if err != nil {
			out.Flush()
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if len(chosen) > 1 {
			emit(out, map[string]any{"workload": w.name, "result": res})
		}
		results = append(results, res)
	}
	if len(results) == 1 {
		emit(out, results[0])
		return 0
	}
	all := &result{Correct: true, Metrics: map[string]metric{}}
	for i, r := range results {
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, v := range r.Metrics {
			all.Metrics[chosen[i].name+"."+k] = v
		}
	}
	emit(out, all)
	return 0
}

func emit(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every value printed is plain data
	}
	fmt.Fprintf(w, "%s\n", b)
}

// endToEndRun sets the workload up setupReps times, measures the last
// set-up for d, and reports the end-to-end metrics.
func endToEndRun(out io.Writer, w workload, c config, d time.Duration) (*result, error) {
	// setup_s is the set-up's CPU time, not its wall time: set-up runs
	// handshakes and round trips whose wall time on a shared host swung
	// threefold between runs of the same code, while the work it does,
	// which is what moving work into set-up adds to, holds steady.
	setups := make([]float64, setupReps)
	walls := make([]float64, setupReps)
	var e env
	for i := range setups {
		t0, cpu0 := time.Now(), cpuSeconds()
		var err error
		if e, err = w.setup(c); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[i], walls[i] = cpuSeconds()-cpu0, time.Since(t0).Seconds()
		if i < setupReps-1 {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
	}
	// live_heap_mb is taken on the set-up, warmed system rather than at the
	// end of the window: the server's ticket replay cache grows with every
	// resumption, so an end-of-window figure would grow with throughput.
	// The end-of-window figure goes on the detail line.
	heap := liveHeapMB()
	rec, err := measure(e, len(w.keys), d, subWindows, nil)
	if err != nil {
		e.close()
		return nil, err
	}
	res := newResult(rec)
	values := map[string]float64{
		"setup_s":      median(setups),
		"live_heap_mb": heap,
		"norm_ops_s":   rec.normOpsPerSec(),
	}
	samples := map[string]uint64{}
	for k, key := range w.keys {
		samples[key] = rec.pooled(k).n
	}
	detail := map[string]any{
		"workload":       w.name,
		"clients":        e.workers(),
		"sub_windows":    subWindows,
		"setups_cpu_s":   setups,
		"setups_wall_s":  walls,
		"samples":        samples,
		"window_ops":     rec.ops,
		"window_steal_s": rec.steal,
		"window_speed":   finiteEach(rec.speed),
		"quiet_windows":  rec.quiet(),
		"op_p50_us":      rec.windowQuantile(0, 0.5),
		"op_p99_us":      rec.windowQuantile(0, 0.99),
		"cpu_us_per_op":  rec.cpu / float64(sumOps(rec)) * 1e6,
		"figures":        finiteAll(w.detail(e, rec)),
		"first_error":    errString(rec.firstErr),
	}
	// The recorders' histograms are the benchmark's, not the program's:
	// with rec dropped, the live heap is the running system plus the
	// workload's inputs.
	rec = nil
	detail["live_heap_end_mb"] = liveHeapMB()
	if err := e.close(); err != nil {
		return nil, err
	}
	for _, m := range endToEnd {
		v := values[m.name]
		if math.IsNaN(v) || v <= 0 {
			return nil, fmt.Errorf("%s has no value (%v)", m.name, v)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	emit(out, map[string]any{"detail": detail})
	return res, nil
}

func newResult(rec *recorder) *result {
	return &result{Correct: rec.failed == 0, Attempted: rec.attempted, Failed: rec.failed, Metrics: map[string]metric{}}
}

func (r *result) add(rec *recorder) {
	r.Attempted += rec.attempted
	r.Failed += rec.failed
	r.Correct = r.Correct && rec.failed == 0
}

func finiteAll(m map[string]float64) map[string]float64 {
	for k, v := range m {
		m[k] = finite(v)
	}
	return m
}

func finiteEach(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = finite(x)
	}
	return out
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// goCounters are the runtime's cumulative allocation and CPU counters.
type goCounters struct {
	allocs, bytes            float64
	gcCPU, totalCPU, idleCPU float64
}

func readGo() goCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return goCounters{
		allocs:   float64(s[0].Value.Uint64()),
		bytes:    float64(s[1].Value.Uint64()),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
		idleCPU:  s[4].Value.Float64(),
	}
}

// traceRun measures half of d untraced and half traced, then fills in the
// layers the workload does not reach from brief traced runs of the other
// workloads and from direct calls, and reports the per-layer ledger.
func traceRun(w workload, c config, d time.Duration, spansDir string) (*result, error) {
	half := d / 2
	m := map[string]float64{}

	e, err := w.setup(c)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	g0 := readGo()
	plain, err := measure(e, len(w.keys), half, subWindows, nil)
	g1 := readGo()
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	res := newResult(plain)
	ops := float64(sumOps(plain))
	m["go.allocs_per_op"] = ratio(g1.allocs-g0.allocs, ops)
	m["go.alloc_bytes_per_op"] = ratio(g1.bytes-g0.bytes, ops)
	m["go.gc_cpu_frac"] = ratio(g1.gcCPU-g0.gcCPU, (g1.totalCPU-g1.idleCPU)-(g0.totalCPU-g0.idleCPU))

	var tracers []*tracer
	traced, tr, err := tracedRun(w, c, half, subWindows, m)
	if err != nil {
		return nil, err
	}
	tracers = append(tracers, tr)
	res.add(traced)
	m["trace.overhead_frac"] = 1 - traced.normOpsPerSec()/plain.normOpsPerSec()
	m["trace.unattributed_frac"] = tr.unattributed()

	for _, v := range workloads {
		if v.name == w.name || !v.traffic {
			continue
		}
		probe := map[string]float64{}
		rec, tr, err := tracedRun(v, c, probeWindow, 1, probe)
		if err != nil {
			return nil, fmt.Errorf("%s traffic: %w", v.name, err)
		}
		tracers = append(tracers, tr)
		res.add(rec)
		fill(m, probe)
	}
	layers, err := layerProbes(c.seed)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	fill(m, layers)

	// The two questions the ledger answers: how much of a loopback
	// handshake is socket rather than in-memory protocol work, and how
	// much of a SUBMIT is parsing the B1 ciphertext.
	m["protocol.socket_share.hs_full"] = 1 - ratio(m["protocol.mem.hs_full_us"], m["protocol.loopback.hs_full_us"])
	m["protocol.socket_share.hs_resumed"] = 1 - ratio(m["protocol.mem.hs_resumed_us"], m["protocol.loopback.hs_resumed_us"])
	m["agg.parse_share_of_submit"] = ratio(m["ringlwe.parse_ct_us.b1"], m[submitSpanP50])

	for _, pl := range perLayer {
		v, ok := m[pl.name]
		if !ok {
			return nil, fmt.Errorf("ledger is missing %s", pl.name)
		}
		res.Metrics[pl.name] = metric{finite(v), pl.unit}
	}
	if spansDir != "" {
		if err := writeSpans(spansDir, w.name, c.seed, tracers); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// tracedRun sets v up with a tracer, measures it for d, and adds its
// ledger metrics (when it has any) to m.
func tracedRun(v workload, c config, d time.Duration, nwin int, m map[string]float64) (*recorder, *tracer, error) {
	tr := newTracer()
	c.trace = tr
	e, err := v.setup(c)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	le, hasLedger := e.(ledgerEnv)
	if hasLedger {
		le.mark()
	}
	rec, err := measure(e, len(v.keys), d, nwin, tr)
	if hasLedger {
		fill(m, le.ledger(tr, rec))
	}
	if cerr := e.close(); err == nil {
		err = cerr
	}
	return rec, tr, err
}

// fill copies the entries of src that dst lacks.
func fill(dst, src map[string]float64) {
	for k, v := range src {
		if _, ok := dst[k]; !ok {
			dst[k] = v
		}
	}
}

// writeSpans writes every kept span of a traced run to one JSON-lines
// file under dir.
func writeSpans(dir, name string, seed uint64, tracers []*tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	for _, tr := range tracers {
		if err := tr.write(path); err != nil {
			return err
		}
	}
	return nil
}

// hostStamp records where and on what a result was measured.
func hostStamp(name string, seed uint64, seconds, trace int, commit, source string) map[string]any {
	goamd64 := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				goamd64 = s.Value
			}
		}
	}
	if goamd64 == "" && runtime.GOARCH == "amd64" {
		goamd64 = "v1"
	}
	return map[string]any{
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"goamd64":       goamd64,
		"go_version":    runtime.Version(),
		"goos":          runtime.GOOS,
		"goarch":        runtime.GOARCH,
		"commit":        commit,
		"source_sha256": source,
		"workload":      name,
		"seed":          seed,
		"seconds":       seconds,
		"trace":         trace,
	}
}

// cpuModel reads the processor's model name where the system reports it.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

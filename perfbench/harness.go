package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// env is one workload's running system: everything set up, warmed, and
// ready for clients to loop against it.
type env interface {
	// worker runs client i's closed loop until stop is set, recording every
	// operation into rec. It returns an error only when the client can no
	// longer continue; failed operations are recorded, not returned.
	worker(i int, rec *recorder, stop *atomic.Bool) error
	// finish runs the end-of-run output checks once every worker has
	// returned, recording any failure into rec.
	finish(rec *recorder) error
	close() error
	// workers is the number of closed-loop clients measure runs.
	workers() int
}

// recorder collects one client's measurements: per-window latency
// histograms for each of the workload's latency keys, per-window
// operation counts, and the attempted/failed totals. The window is split
// into nwin equal sub-windows so that every end-to-end figure can be
// reported as the median over sub-windows, which a short stall on the host
// moves far less than a pooled figure.
type recorder struct {
	start time.Time
	win   time.Duration
	nwin  int

	lat       [][]hist  // [key][window]
	ops       []uint64  // completed operations per window
	steal     []float64 // CPU seconds the host took from this machine per window
	speed     []float64 // host speed per window, as the speed probe measured it
	cpu       float64   // CPU seconds this process used over the window
	attempted uint64
	failed    uint64
	firstErr  error

	lane *lane // non-nil in a traced run
}

func newRecorder(keys, nwin int, win time.Duration) *recorder {
	r := &recorder{win: win, nwin: nwin, lat: make([][]hist, keys), ops: make([]uint64, nwin)}
	for k := range r.lat {
		r.lat[k] = make([]hist, nwin)
	}
	return r
}

// window maps an instant to its sub-window, or -1 outside the measured
// window.
func (r *recorder) window(t time.Time) int {
	d := t.Sub(r.start)
	if d < 0 {
		return -1
	}
	w := int(d / r.win)
	if w >= r.nwin {
		return -1
	}
	return w
}

// latency records one timed step under key, by its end time.
func (r *recorder) latency(key int, start, end time.Time) {
	if w := r.window(end); w >= 0 {
		r.lat[key][w].add(end.Sub(start))
	}
}

// op counts one of the workload's primary operations, ended at end; a
// non-nil err marks it failed. Operations outside the window are not
// counted, but their first error is still kept, so set-up can check its
// warm-up through a recorder with no window at all.
func (r *recorder) op(end time.Time, err error) {
	if w := r.window(end); w >= 0 {
		r.ops[w]++
		r.check(err)
	} else if err != nil && r.firstErr == nil {
		r.firstErr = err
	}
}

// aux counts a checked operation that is not the workload's primary one
// (a QUERY beside the SUBMITs) with the same window rule as op.
func (r *recorder) aux(end time.Time, err error) {
	if r.window(end) >= 0 {
		r.check(err)
	} else if err != nil && r.firstErr == nil {
		r.firstErr = err
	}
}

// check counts one checked operation regardless of the window, as the
// end-of-run checks do; a non-nil err marks it failed.
func (r *recorder) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

func (r *recorder) merge(o *recorder) {
	for k := range r.lat {
		for w := range r.lat[k] {
			r.lat[k][w].merge(&o.lat[k][w])
		}
	}
	for w := range r.ops {
		r.ops[w] += o.ops[w]
	}
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// quiet returns the sub-windows the figures are taken over: those in which
// the hypervisor took no more CPU time from this machine than in the
// median sub-window, give or take one 10-ms tick (all of them where steal
// is not reported). On a shared host, stolen time stalls a closed loop far
// beyond its own share and comes in bursts of seconds; dropping the
// stolen sub-windows steadies the figures, and without steal every
// sub-window counts.
func (r *recorder) quiet() []int {
	all := make([]int, r.nwin)
	for w := range all {
		all[w] = w
	}
	if len(r.steal) != r.nwin {
		return all
	}
	for _, s := range r.steal {
		if math.IsNaN(s) {
			return all
		}
	}
	limit := median(r.steal) + stealTick
	var q []int
	for w, s := range r.steal {
		if s <= limit {
			q = append(q, w)
		}
	}
	return q
}

// stealTick is the resolution of the steal figures: one USER_HZ tick.
const stealTick = 0.01

// opsPerSec is the median over the quiet sub-windows of completed
// operations per second.
func (r *recorder) opsPerSec() float64 {
	var rates []float64
	for _, w := range r.quiet() {
		rates = append(rates, rate(r.ops[w], r.win))
	}
	return median(rates)
}

// refSpeed is the host speed that normOpsPerSec scales to, in reference
// kernel rounds per CPU second. The 2-vCPU Xeon VM the benchmark was built
// on measured 7,800 to 10,000.
const refSpeed = 10000

// normOpsPerSec is the median over the quiet sub-windows of completed
// operations per second, each scaled by refSpeed over the host speed the
// probe measured in that sub-window: the rate the workload would reach on
// a host that runs the reference kernel at refSpeed. On a shared host the
// plain rate of a seeded run moved by a fifth or more with the host's
// speed, and the scaled rate by a few percent.
func (r *recorder) normOpsPerSec() float64 {
	var rates []float64
	for _, w := range r.quiet() {
		rates = append(rates, rate(r.ops[w], r.win)*ratio(refSpeed, r.speed[w]))
	}
	return median(rates)
}

// windowQuantile is the median over the quiet sub-windows of each
// sub-window's q-quantile of key, in microseconds.
func (r *recorder) windowQuantile(key int, q float64) float64 {
	var qs []float64
	for _, w := range r.quiet() {
		qs = append(qs, r.lat[key][w].quantile(q)/1e3)
	}
	return median(qs)
}

// pooled merges every sub-window of key into one histogram.
func (r *recorder) pooled(key int) *hist {
	var h hist
	for w := range r.lat[key] {
		h.merge(&r.lat[key][w])
	}
	return &h
}

// measure runs e's closed-loop clients for d, split into nwin
// sub-windows, with the speed probe beside them, and returns their merged
// recorder. tr, when non-nil, gives each client a trace lane and is
// switched on for exactly the window.
func measure(e env, keys int, d time.Duration, nwin int, tr *tracer) (*recorder, error) {
	n := e.workers()
	win := d / time.Duration(nwin)
	recs := make([]*recorder, n)
	for i := range recs {
		recs[i] = newRecorder(keys, nwin, win)
		if tr != nil {
			recs[i].lane = tr.lane(i)
		}
	}
	var (
		stop  atomic.Bool
		wg    sync.WaitGroup
		errs  = make([]error, n)
		probe = newSpeedProbe(nwin)
	)
	start := time.Now()
	if tr != nil {
		tr.on.Store(true)
	}
	for i := range recs {
		recs[i].start = start
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = e.worker(i, recs[i], &stop)
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		probe.run(recs[0].window, &stop)
	}()
	steal := make([]float64, nwin+1)
	steal[0] = stealSeconds()
	cpu0 := cpuSeconds()
	for w := 1; w <= nwin; w++ {
		time.Sleep(time.Until(start.Add(time.Duration(w) * win)))
		steal[w] = stealSeconds()
	}
	stop.Store(true)
	wg.Wait()
	cpu := cpuSeconds() - cpu0
	if tr != nil {
		tr.on.Store(false)
	}
	total := newRecorder(keys, nwin, win)
	total.start = start
	total.cpu = cpu
	total.steal = make([]float64, nwin)
	for w := range total.steal {
		total.steal[w] = steal[w+1] - steal[w]
	}
	total.speed = probe.speeds()
	for _, r := range recs {
		total.merge(r)
	}
	if err := errors.Join(errs...); err != nil {
		return total, err
	}
	if err := e.finish(total); err != nil {
		return total, err
	}
	if total.attempted == 0 {
		return total, fmt.Errorf("no operation completed in %v", d)
	}
	return total, nil
}

// stealSeconds is the CPU time the hypervisor has taken from this
// machine's processors since boot (the steal column of /proc/stat, in
// USER_HZ ticks of 10 ms); NaN where the system does not report it.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return math.NaN()
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return math.NaN()
	}
	ticks, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return math.NaN()
	}
	return float64(ticks) * stealTick
}

// cpuSeconds is the user plus system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// liveHeapMB is the heap the last of two forced collections marked live,
// in MiB. The second collection frees what the first only moved to
// sync.Pool victim caches. HeapInuse would add span fragmentation, which
// moved it by a tenth to a third between runs of the same code.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// finite replaces NaN and ±Inf, which JSON cannot carry, with -1.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}

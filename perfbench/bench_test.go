package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestHistBucketsHoldTheirValues(t *testing.T) {
	for _, v := range []uint64{0, 1, 255, 256, 257, 1000, 123456, 1 << 30, 1<<41 - 1} {
		i := histIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d, outside [0, %d)", v, i, histBuckets)
		}
		lo, w := histBounds(i)
		if float64(v) < lo || float64(v) >= lo+w {
			t.Errorf("value %d in bucket %d = [%v, %v)", v, i, lo, lo+w)
		}
		if v >= 256 && w/lo > 1.0/128 {
			t.Errorf("bucket %d is %v wide at %v: wider than 1/128", i, w, lo)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	if !math.IsNaN(h.quantile(0.5)) {
		t.Fatal("empty histogram has a median")
	}
	vals := make([]float64, 0, 10000)
	for i := 1; i <= 10000; i++ {
		d := time.Duration(i) * time.Microsecond
		h.add(d)
		vals = append(vals, float64(d))
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := vals[int(q*float64(len(vals)))]
		if got := h.quantile(q); math.Abs(got-want)/want > 1.0/128 {
			t.Errorf("q%v = %v, want %v within 1/128", q, got, want)
		}
	}
}

func TestMedianRateRatio(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
	if got := median([]float64{math.NaN(), 5, 1}); got != 3 {
		t.Errorf("median ignoring NaN = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is a number")
	}
	if got := rate(500, 250*time.Millisecond); got != 2000 {
		t.Errorf("rate = %v, want 2000/s", got)
	}
	if !math.IsNaN(ratio(1, 0)) || ratio(1, 4) != 0.25 {
		t.Error("ratio")
	}
}

func TestRecorderWindows(t *testing.T) {
	r := newRecorder(1, 4, time.Second)
	r.start = time.Now()
	at := func(s float64) time.Time { return r.start.Add(time.Duration(s * float64(time.Second))) }
	r.op(at(0.5), nil)
	r.op(at(0.7), nil)
	r.op(at(1.5), errCheck)
	r.op(at(2.2), nil)
	r.op(at(3.9), nil)
	r.op(at(4.1), errCheck) // after the window: neither counted nor failed
	r.op(at(-0.1), nil)     // before it
	r.latency(0, at(0.4), at(0.5))
	r.latency(0, at(1.3), at(1.5))
	if r.attempted != 5 || r.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 5 and 1", r.attempted, r.failed)
	}
	if got := r.opsPerSec(); got != 1 {
		t.Errorf("median window rate = %v, want 1/s (windows 2,1,1,1)", got)
	}
	if got := r.windowQuantile(0, 0.5); math.Abs(got-150e3)/150e3 > 0.01 {
		t.Errorf("window median p50 = %v µs, want ~150000 (windows 100 ms, 200 ms, empty, empty)", got)
	}
	if got := r.pooled(0).n; got != 2 {
		t.Errorf("pooled samples = %d", got)
	}

	warm := newRecorder(1, 0, 1)
	warm.op(time.Now(), errCheck)
	if warm.attempted != 0 || warm.failed != 0 || warm.firstErr == nil {
		t.Error("a recorder with no window must count nothing but keep the error")
	}
}

var errCheck = checkEcho([]byte("a"), []byte("b"))

func TestQuietWindows(t *testing.T) {
	r := newRecorder(1, 4, time.Second)
	r.ops = []uint64{1, 10, 2, 8}
	r.steal = []float64{0.3, 0, 0.2, 0.1}
	if got := r.quiet(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("quiet windows %v, want [1 3]", got)
	}
	if got := r.opsPerSec(); got != 9 {
		t.Errorf("rate over the quiet windows = %v, want 9/s", got)
	}
	r.speed = []float64{refSpeed, refSpeed / 2, refSpeed, 2 * refSpeed}
	if got := r.normOpsPerSec(); got != 12 {
		t.Errorf("scaled rate over the quiet windows = %v, want 12/s (20 and 4)", got)
	}
	r.steal = []float64{0, 0.01, 0, 0}
	if got := r.quiet(); len(got) != 4 {
		t.Errorf("a one-tick difference must not drop a window, got %v", got)
	}
	r.steal[2] = math.NaN()
	if got := r.quiet(); len(got) != 4 {
		t.Errorf("without steal figures every window counts, got %v", got)
	}
}

func TestCovered(t *testing.T) {
	for _, c := range []struct {
		ivs    [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 100, 0},
		{[][2]int64{{10, 20}, {30, 40}}, 0, 100, 20},
		{[][2]int64{{30, 60}, {10, 40}}, 0, 100, 50},   // overlapping, unsorted
		{[][2]int64{{-10, 20}, {90, 130}}, 0, 100, 30}, // clipped to [lo, hi]
		{[][2]int64{{10, 50}, {20, 30}}, 0, 100, 40},   // nested
	} {
		if got := covered(c.ivs, c.lo, c.hi); got != c.want {
			t.Errorf("covered(%v, %d, %d) = %d, want %d", c.ivs, c.lo, c.hi, got, c.want)
		}
	}
}

func TestLaneSelfTimeAndLinks(t *testing.T) {
	tr := newTracer()
	l := tr.lane(0)
	l.begin("req")
	l.begin("child")
	cs := l.stack[1].start
	l.complete("leaf", cs, cs+1000, 7)
	time.Sleep(time.Millisecond)
	l.end()
	l.end()
	if len(l.kept) != 3 {
		t.Fatalf("kept %d spans, want 3", len(l.kept))
	}
	leaf, child, req := l.kept[0], l.kept[1], l.kept[2]
	if leaf.Parent != child.ID || child.Parent != req.ID || req.Parent != 0 {
		t.Errorf("parents: leaf→%d child→%d req→%d (ids %d %d)", leaf.Parent, child.Parent, req.Parent, child.ID, req.ID)
	}
	if leaf.Req != req.ID || child.Req != req.ID || req.Req != req.ID {
		t.Error("spans of one request must share its id")
	}
	if want := child.End - child.Start - 1000; child.Self != want {
		t.Errorf("child self %d, want %d", child.Self, want)
	}
	if want := (req.End - req.Start) - (child.End - child.Start); req.Self != want {
		t.Errorf("request self %d, want %d", req.Self, want)
	}
	if got, want := tr.unattributed(), float64(req.Self)/float64(req.End-req.Start); got != want {
		t.Errorf("unattributed %v, want %v", got, want)
	}
	if tr.p50us("leaf") < 0.99 || tr.p50us("leaf") > 1.01 {
		t.Errorf("leaf p50 = %v µs, want 1", tr.p50us("leaf"))
	}
	var none *lane
	none.begin("x") // a nil lane records nothing and does not panic
	none.end()
}

func TestOutputChecks(t *testing.T) {
	if checkEcho([]byte("abc"), []byte("abc")) != nil || checkEcho([]byte("abd"), []byte("abc")) == nil {
		t.Error("checkEcho")
	}
	want := []byte{1, 2, 3}
	got := []byte{0, 0, 0}
	xorInto(got, []byte{1, 0, 3})
	xorInto(got, []byte{0, 2, 0})
	if err := checkAggregate(got, want, 2, 2); err != nil {
		t.Errorf("matching aggregate rejected: %v", err)
	}
	if checkAggregate(got, want, 3, 2) == nil {
		t.Error("addend count mismatch accepted")
	}
	if checkAggregate([]byte{1, 2, 4}, want, 2, 2) == nil {
		t.Error("wrong plaintext accepted")
	}
}

// TestDeclaredMetrics keeps the program's metric lists in step with
// BENCHMARK.json.
func TestDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d built", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %s, built %s", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("declared %d+%d metrics, built %d+%d", len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: declared %s %s, built %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: declared %s %s, built %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// lastResult runs the benchmark and parses its last line.
func lastResult(t *testing.T, args ...string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run %v exited %d: %s", args, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("run %v: correct %v, %d of %d failed\n%s", args, res.Correct, res.Failed, res.Attempted, out.String())
	}
	return res
}

func TestEveryWorkloadEndToEnd(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := lastResult(t, "--workload", w.name, "--seed", "3", "--seconds", "1")
			for _, m := range endToEnd {
				if v, ok := res.Metrics[m.name]; !ok || v.Value <= 0 || v.Unit != m.unit {
					t.Errorf("%s = %+v", m.name, v)
				}
			}
		})
	}
}

func TestTracedLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced run drives every workload")
	}
	res := lastResult(t, "--workload", "seal", "--seed", "3", "--seconds", "1", "--trace", "1", "--spans", t.TempDir())
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("ledger has %d metrics, want %d", len(res.Metrics), len(perLayer))
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{{"--workload", "nope"}, {"--workload", "seal", "--trace", "2"}, {"--workload", "seal", "--seconds", "0"}} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run %v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

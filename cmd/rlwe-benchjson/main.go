// Command rlwe-benchjson converts `go test -bench` text output into a JSON
// document, so CI can archive benchmark runs (BENCH_N.json artifacts) and
// the performance trajectory across PRs stays machine-diffable.
//
// Usage:
//
//	go test -run XXX -bench 'NTT|Encrypt' -benchmem ./... | rlwe-benchjson > BENCH.json
//	rlwe-benchjson -in bench.txt -out BENCH_2.json
//	rlwe-benchjson -in ntt.txt,sampler.txt -out BENCH_3.json
//
// -in accepts a comma-separated list so benchmark families collected by
// separate go test invocations (the NTT suite, the sampler suite, the
// engine×sampler matrix) merge into one archived document.
//
// The tool also acts as the CI regression gate:
//
//	rlwe-benchjson -in bench.txt -out BENCH_6.json \
//	    -baseline BENCH_5.json,BENCH_6.json -gate 'vector|wide-ky' -max-regress 10
//
// -baseline loads archived documents (comma separated, later files taking
// precedence per benchmark name, so the list is the committed trajectory in
// chronological order); every current result whose name matches the -gate
// regexp is compared against its baseline ns/op, and the run fails — after
// writing -out — if any regresses by more than -max-regress percent. The
// comparison table goes to stderr either way.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Result is one benchmark line: its name (with the -GOMAXPROCS suffix
// stripped), iteration count, and every reported metric keyed by unit
// (ns/op, B/op, allocs/op, plus custom units like m4cyc or the
// rlwe-loadgen latency percentiles p50-ns/p99-ns — any "value unit"
// pair on the line is captured).
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Document is the archived JSON shape.
type Document struct {
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Results   []Result `json:"results"`
}

// parse extracts benchmark results from go test output, ignoring every
// non-benchmark line (pass/fail markers, package headers, metrics noise).
func parse(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		name := f[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		res := Result{Name: name, Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			res.Metrics[f[i+1]] = v
		}
		// Derived throughput metric: ns/op inverted to operations per
		// second, so rate-style benchmarks (handshakes/s, rekeys/s) are
		// directly readable from the archive.
		if ns, ok := res.Metrics["ns/op"]; ok && ns > 0 {
			res.Metrics["ops/s"] = 1e9 / ns
		}
		deriveNsPerCoeff(&res)
		out = append(out, res)
	}
	return out, sc.Err()
}

// deriveNsPerCoeff adds the per-coefficient cost to the kernel-family
// benchmarks (NTT transforms and sampler fills), whose polynomial
// dimension is encoded in the benchmark name: the paper's P1 is n=256 and
// P2 is n=512, and the sampler suite samples P1-sized polynomials. A
// metric the benchmark already reported (BenchmarkSamplePolyInto emits
// its own ns/coeff) is never overwritten, so archives stay comparable
// whichever side computed it.
func deriveNsPerCoeff(res *Result) {
	if _, ok := res.Metrics["ns/coeff"]; ok {
		return
	}
	ns, ok := res.Metrics["ns/op"]
	if !ok || ns <= 0 {
		return
	}
	n := 0
	switch {
	case strings.HasPrefix(res.Name, "BenchmarkForward/") || strings.HasPrefix(res.Name, "BenchmarkInverse/"):
		if strings.Contains(res.Name, "/P1/") {
			n = 256
		} else if strings.Contains(res.Name, "/P2/") {
			n = 512
		}
	case strings.Contains(res.Name, "SamplePolyInto"):
		n = 256
	}
	if n > 0 {
		res.Metrics["ns/coeff"] = ns / float64(n)
	}
}

// loadBaseline merges archived documents name-by-name, later files
// overriding earlier ones — pass the committed BENCH_*.json trajectory in
// chronological order and each benchmark is gated against the most recent
// archive that ran it.
func loadBaseline(files []string) (map[string]Result, error) {
	base := map[string]Result{}
	for _, name := range files {
		data, err := os.ReadFile(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		var doc Document
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		for _, r := range doc.Results {
			base[r.Name] = r
		}
	}
	return base, nil
}

// checkRegressions compares current results against the baseline on
// ns/op for every name matching gate, printing a benchstat-style table to
// w. It returns the names that regressed by more than maxPct percent.
// Names matching the gate with no baseline entry (new benchmarks) and
// baseline entries that no longer run are reported but never fail.
func checkRegressions(w io.Writer, results []Result, base map[string]Result, gate *regexp.Regexp, maxPct float64) []string {
	var failed []string
	fmt.Fprintf(w, "%-64s %12s %12s %8s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, r := range results {
		if !gate.MatchString(r.Name) {
			continue
		}
		now, ok := r.Metrics["ns/op"]
		if !ok {
			continue
		}
		old, ok := base[r.Name]
		if !ok {
			fmt.Fprintf(w, "%-64s %12s %12.1f %8s\n", r.Name, "-", now, "new")
			continue
		}
		was, ok := old.Metrics["ns/op"]
		if !ok || was <= 0 {
			continue
		}
		delta := (now - was) / was * 100
		mark := ""
		if delta > maxPct {
			mark = "  REGRESSION"
			failed = append(failed, r.Name)
		}
		fmt.Fprintf(w, "%-64s %12.1f %12.1f %+7.1f%%%s\n", r.Name, was, now, delta, mark)
	}
	return failed
}

func main() {
	in := flag.String("in", "", "input file(s), comma separated (default stdin)")
	out := flag.String("out", "", "output file (default stdout)")
	baseline := flag.String("baseline", "", "baseline BENCH_*.json file(s), comma separated, chronological (enables the regression gate)")
	gate := flag.String("gate", "", "regexp of benchmark names the regression gate applies to (default: all, with -baseline)")
	maxRegress := flag.Float64("max-regress", 10, "maximum tolerated ns/op regression vs baseline, percent")
	flag.Parse()

	var results []Result
	if *in == "" {
		r, err := parse(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rlwe-benchjson:", err)
			os.Exit(1)
		}
		results = r
	} else {
		for _, name := range strings.Split(*in, ",") {
			f, err := os.Open(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, "rlwe-benchjson:", err)
				os.Exit(1)
			}
			r, err := parse(f)
			f.Close()
			if err != nil {
				fmt.Fprintln(os.Stderr, "rlwe-benchjson:", err)
				os.Exit(1)
			}
			results = append(results, r...)
		}
	}
	doc := Document{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Results:   results,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "rlwe-benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "rlwe-benchjson:", err)
		os.Exit(1)
	}

	// The regression gate runs after the archive is written, so a failing
	// run still leaves the measurements inspectable.
	if *baseline != "" {
		base, err := loadBaseline(strings.Split(*baseline, ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, "rlwe-benchjson:", err)
			os.Exit(1)
		}
		re, err := regexp.Compile(*gate)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rlwe-benchjson: -gate:", err)
			os.Exit(1)
		}
		if failed := checkRegressions(os.Stderr, results, base, re, *maxRegress); len(failed) > 0 {
			fmt.Fprintf(os.Stderr, "rlwe-benchjson: %d benchmark(s) regressed beyond %.0f%%: %s\n",
				len(failed), *maxRegress, strings.Join(failed, ", "))
			os.Exit(1)
		}
	}
}

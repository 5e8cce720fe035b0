package ntt

import (
	"fmt"
	"runtime"
	"sync"

	"ringlwe/internal/cacheline"
	"ringlwe/internal/par"
)

// Channel-parallel transform schedule for RNS residue polynomials. An RNS
// polynomial over k word-sized moduli is stored flat — k stride-contiguous
// rows of n coefficients in one []uint32 — and every ring operation is k
// independent single-modulus operations, one per residue channel. A Runner
// owns one Engine per channel and fans the rows out over the shared
// persistent worker pool (internal/par), falling back to an inline serial
// loop when the fan-out cannot pay for itself: k == 1 (the one-channel
// paper sets never touch the pool), a single-core GOMAXPROCS, rows below a
// size threshold, or a memory-bound coefficient-wise sum or difference.
//
// A Runner is single-caller state (its job slots and WaitGroup are reused
// across calls to stay allocation-free), so each core.Workspace owns one —
// the same ownership discipline as the rest of the per-goroutine scratch.

// MaxChannels is the most residue channels a Runner schedules. The CRT
// reconstruction in internal/rns bounds usable bases harder (its 128-bit
// accumulator caps k at 4 word-sized moduli); this is array headroom.
const MaxChannels = 8

// parallelMinN is the smallest row length worth a pool round trip; below
// it the per-channel submit/wake cost exceeds the transform itself.
const parallelMinN = 256

type allOp uint8

const (
	opForward allOp = iota
	opInverse
	opForwardThree
	opMul
	opAdd
	opSub
	opScalarMul
)

// allJob is one channel's share of a Runner operation. Slots live in the
// Runner's fixed array and are submitted by pointer, so scheduling a call
// allocates nothing.
type allJob struct {
	op      allOp
	eng     Engine
	a, b, c Poly
	s       uint32
}

func (j *allJob) Run() {
	switch j.op {
	case opForward:
		j.eng.Forward(j.a)
	case opInverse:
		j.eng.Inverse(j.a)
	case opForwardThree:
		j.eng.ForwardThree(j.a, j.b, j.c)
	case opMul:
		j.eng.PointwiseMul(j.c, j.a, j.b)
	case opAdd:
		j.eng.Add(j.c, j.a, j.b)
	case opSub:
		j.eng.Sub(j.c, j.a, j.b)
	case opScalarMul:
		j.eng.ScalarMul(j.c, j.a, j.s)
	}
}

// Runner schedules ring operations across the residue channels of flat RNS
// polynomials (length k·n, row i at [i·n, (i+1)·n)). Not safe for
// concurrent use — one Runner per goroutine/workspace. Every call writes
// its job slots, so the fields sit between cache-line pads (see package
// cacheline).
type Runner struct {
	_    cacheline.Pad
	engs []Engine
	n    int
	jobs [MaxChannels]allJob
	wg   sync.WaitGroup

	// ForceParallel makes every call take the pool path regardless of
	// core count or row size — the benchmark knob that lets the
	// serial-vs-parallel schedule overhead be measured on any machine.
	// ForceSerial pins the inline path the same way (and wins when both
	// are set), so a benchmark's serial lane stays serial on any core
	// count. Neither is meant for production use: the auto heuristic
	// picks correctly there.
	ForceParallel bool
	ForceSerial   bool

	_ cacheline.Pad
}

// NewRunner builds a schedule over one engine per residue channel. All
// engines must share the same ring degree n.
func NewRunner(engs []Engine) (*Runner, error) {
	if len(engs) == 0 {
		return nil, fmt.Errorf("ntt: Runner needs at least one engine")
	}
	if len(engs) > MaxChannels {
		return nil, fmt.Errorf("ntt: Runner supports at most %d channels, got %d", MaxChannels, len(engs))
	}
	n := engs[0].Tables().N
	for i, e := range engs {
		if e.Tables().N != n {
			return nil, fmt.Errorf("ntt: Runner channel %d has n=%d, want %d", i, e.Tables().N, n)
		}
	}
	r := &Runner{engs: engs, n: n}
	for i := range engs {
		r.jobs[i].eng = engs[i]
	}
	return r, nil
}

// K returns the number of residue channels.
func (r *Runner) K() int { return len(r.engs) }

// N returns the per-channel ring degree.
func (r *Runner) N() int { return r.n }

// Engines returns the per-channel engines (shared, immutable).
func (r *Runner) Engines() []Engine { return r.engs }

// row returns channel i's view of a flat residue polynomial.
func (r *Runner) row(a Poly, i int) Poly { return a[i*r.n : (i+1)*r.n] }

// parallel reports whether a call of op should fan out over the pool.
// Sums and differences are memory-bound: at B1's shape (n=1024, k=3) the
// pool round trip costs more than the rows themselves (BenchmarkRNSAddAll),
// so they run inline unless forced.
func (r *Runner) parallel(op allOp) bool {
	if len(r.engs) == 1 || r.ForceSerial {
		return false
	}
	if r.ForceParallel {
		return true
	}
	if op == opAdd || op == opSub {
		return false
	}
	return r.n >= parallelMinN && runtime.GOMAXPROCS(0) > 1
}

// dispatch runs the populated job slots [0, k) — in parallel through the
// shared pool, or inline when the fan-out would not pay.
func (r *Runner) dispatch() {
	k := len(r.engs)
	if !r.parallel(r.jobs[0].op) {
		for i := 0; i < k; i++ {
			r.jobs[i].Run()
		}
		return
	}
	p := par.Shared()
	r.wg.Add(k)
	for i := 0; i < k; i++ {
		p.Submit(&r.jobs[i], &r.wg)
	}
	r.wg.Wait()
}

// ForwardAll transforms every residue row of a in place.
func (r *Runner) ForwardAll(a Poly) {
	for i := range r.engs {
		r.jobs[i].op = opForward
		r.jobs[i].a = r.row(a, i)
	}
	r.dispatch()
}

// InverseAll inverse-transforms every residue row of a in place.
func (r *Runner) InverseAll(a Poly) {
	for i := range r.engs {
		r.jobs[i].op = opInverse
		r.jobs[i].a = r.row(a, i)
	}
	r.dispatch()
}

// ForwardThreeAll applies each channel's fused three-way forward transform
// to the rows of a, b, c — the RNS form of the paper's parallel-3 NTT on
// the encryption hot path.
func (r *Runner) ForwardThreeAll(a, b, c Poly) {
	for i := range r.engs {
		r.jobs[i].op = opForwardThree
		r.jobs[i].a = r.row(a, i)
		r.jobs[i].b = r.row(b, i)
		r.jobs[i].c = r.row(c, i)
	}
	r.dispatch()
}

// MulAll sets c = a ∘ b per channel (transform-domain pointwise product).
func (r *Runner) MulAll(c, a, b Poly) {
	for i := range r.engs {
		r.jobs[i].op = opMul
		r.jobs[i].c = r.row(c, i)
		r.jobs[i].a = r.row(a, i)
		r.jobs[i].b = r.row(b, i)
	}
	r.dispatch()
}

// AddAll sets c = a + b per channel. Addition is memory-bound, so it runs
// inline unless ForceParallel is set.
func (r *Runner) AddAll(c, a, b Poly) {
	for i := range r.engs {
		r.jobs[i].op = opAdd
		r.jobs[i].c = r.row(c, i)
		r.jobs[i].a = r.row(a, i)
		r.jobs[i].b = r.row(b, i)
	}
	r.dispatch()
}

// SubAll sets c = a - b per channel, inline like AddAll.
func (r *Runner) SubAll(c, a, b Poly) {
	for i := range r.engs {
		r.jobs[i].op = opSub
		r.jobs[i].c = r.row(c, i)
		r.jobs[i].a = r.row(a, i)
		r.jobs[i].b = r.row(b, i)
	}
	r.dispatch()
}

// ScalarMulAll sets c = s·a with one scalar per channel (the residues of a
// single big-integer scalar); len(scalars) must equal K().
func (r *Runner) ScalarMulAll(c, a Poly, scalars []uint32) {
	if len(scalars) != len(r.engs) {
		panic("ntt: ScalarMulAll scalar count mismatch")
	}
	for i := range r.engs {
		r.jobs[i].op = opScalarMul
		r.jobs[i].c = r.row(c, i)
		r.jobs[i].a = r.row(a, i)
		r.jobs[i].s = scalars[i]
	}
	r.dispatch()
}

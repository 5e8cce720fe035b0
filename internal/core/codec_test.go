package core

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ringlwe/internal/ntt"
	"ringlwe/internal/rng"
)

// refDecode is the branching threshold decoder the branch-free DecodeInto
// replaced, kept as its oracle: one comparison pair per coefficient and an
// OR into dst[i/8] for every set bit. It stays out of line so that the
// no-branch gate below finds it in the test binary.
//
//go:noinline
func refDecode(dst []byte, p *Params, m ntt.Poly) {
	clear(dst)
	for i := 0; i < p.N; i++ {
		c := uint64(m[i])
		if 4*c > uint64(p.Q) && 4*c < 3*uint64(p.Q) {
			dst[i/8] |= 1 << (i % 8)
		}
	}
}

// refAddEncoded is the branching encoder the branch-free addEncoded
// replaced, kept as its oracle: a modular add of ⌊q/2⌋'s residue behind a
// test of each message bit.
//
//go:noinline
func refAddEncoded(p *Params, dst ntt.Poly, msg []byte) {
	b := p.Basis
	for i, mod := range b.Mods {
		half := b.HalfQRes(i)
		row := p.row(dst, i)
		for k, m := range msg {
			c := row[8*k : 8*k+8]
			for j := range c {
				if m>>j&1 == 1 {
					c[j] = mod.Add(c[j], half)
				}
			}
		}
	}
}

// TestDecodeConstantTimeExhaustive checks DecodeInto on every coefficient
// value c ∈ [0, q) of P1 (q = 7681) and P2 (q = 12289) against the
// threshold 4c > q && 4c < 3q. Each pass fills the polynomial with a
// window of consecutive values, so every value also lands on every bit
// position of an output byte over the passes.
func TestDecodeConstantTimeExhaustive(t *testing.T) {
	for _, p := range []*Params{P1(), P2()} {
		q := uint64(p.Q)
		poly := make(ntt.Poly, p.N)
		got := make([]byte, p.MessageBytes())
		for start := uint32(0); start < p.Q; start += uint32(p.N) - 3 {
			for i := range poly {
				poly[i] = (start + uint32(i)) % p.Q
			}
			DecodeInto(got, p, poly)
			for i, c := range poly {
				want := 4*uint64(c) > q && 4*uint64(c) < 3*q
				if bit := got[i/8]>>(i%8)&1 == 1; bit != want {
					t.Fatalf("%s: coefficient %d = %d decodes to %v, want %v", p.Name, i, c, bit, want)
				}
			}
		}
	}
}

// TestDecodeDifferential checks DecodeInto against refDecode on uniformly
// random polynomials, not just the structured windows above.
func TestDecodeDifferential(t *testing.T) {
	for _, p := range []*Params{P1(), P2(), A1()} {
		src := rng.NewXorshift128(4001)
		got, want := make([]byte, p.MessageBytes()), make([]byte, p.MessageBytes())
		for trial := 0; trial < 200; trial++ {
			poly := randCanonicalPoly(p, src)
			DecodeInto(got, p, poly)
			refDecode(want, p, poly)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: DecodeInto differs from refDecode on random poly (trial %d)", p.Name, trial)
			}
		}
	}
}

// TestEncodeConstantTimeMatchesEncode checks addEncoded against
// refAddEncoded on a zero polynomial, and that encryption rejects a
// message of the wrong length.
func TestEncodeConstantTimeMatchesEncode(t *testing.T) {
	p := P1()
	src := rng.NewXorshift128(77)
	for trial := 0; trial < 100; trial++ {
		msg := randMessage(src, p.MessageBytes())
		a, b := p.newPoly(), p.newPoly()
		addEncoded(p, a, msg)
		refAddEncoded(p, b, msg)
		if !equalPoly(a, b) {
			t.Fatal("addEncoded differs from refAddEncoded")
		}
	}
	s := newScheme(t, p, 78)
	pk, _, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Encrypt(pk, make([]byte, 3)); err == nil {
		t.Fatal("short message accepted")
	}
}

// TestAddEncodedConstantTimeDifferential checks addEncoded against
// refAddEncoded on random messages over every shipped set. Every other
// trial draws its coefficients from [q − ⌊q/2⌋, q), where adding ⌊q/2⌋
// wraps, so the reduction's add-back half is exercised in every channel.
func TestAddEncodedConstantTimeDifferential(t *testing.T) {
	for _, p := range []*Params{P1(), P2(), A1(), B1()} {
		src := rng.NewXorshift128(4002)
		for trial := 0; trial < 100; trial++ {
			a := randCanonicalPoly(p, src)
			if trial%2 == 1 {
				for i, qi := range p.Basis.Moduli {
					half, row := p.Basis.HalfQRes(i), p.row(a, i)
					for j, c := range row {
						row[j] = qi - 1 - c%half
					}
				}
			}
			b := append(ntt.Poly(nil), a...)
			msg := randMessage(src, p.MessageBytes())
			addEncoded(p, a, msg)
			refAddEncoded(p, b, msg)
			if !equalPoly(a, b) {
				t.Fatalf("%s: addEncoded differs from refAddEncoded (trial %d)", p.Name, trial)
			}
		}
	}
}

// TestConstantTimeDecodeEndToEnd decodes a real decryption's pre-decoding
// polynomial with DecodeInto and with refDecode.
func TestConstantTimeDecodeEndToEnd(t *testing.T) {
	p := P1()
	s := newScheme(t, p, 55)
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	msg := randMessage(rng.NewXorshift128(56), p.MessageBytes())
	ct, err := s.Encrypt(pk, msg)
	if err != nil {
		t.Fatal(err)
	}
	mprime := prePoly(s, sk, ct)
	got, want := make([]byte, p.MessageBytes()), make([]byte, p.MessageBytes())
	DecodeInto(got, p, mprime)
	refDecode(want, p, mprime)
	if !bytes.Equal(got, want) {
		t.Fatal("DecodeInto diverges from refDecode on a real decryption")
	}
}

func TestDecodeZeroAlloc(t *testing.T) {
	p := P1()
	poly := randCanonicalPoly(p, rng.NewXorshift128(4003))
	dst := make([]byte, p.MessageBytes())
	if n := testing.AllocsPerRun(100, func() {
		DecodeInto(dst, p, poly)
	}); n != 0 {
		t.Errorf("DecodeInto allocates %v objects/op, want 0", n)
	}
}

// TestSchemeDecryptIntoZeroAlloc pins the one-shot Scheme.DecryptInto at
// zero steady-state allocations: its scratch polynomial comes from the
// scheme's pool of bare polynomials.
func TestSchemeDecryptIntoZeroAlloc(t *testing.T) {
	for _, p := range []*Params{P1(), B1()} {
		s := newScheme(t, p, 4004)
		pk, sk, err := s.GenerateKeys()
		if err != nil {
			t.Fatal(err)
		}
		ct, err := s.Encrypt(pk, make([]byte, p.MessageBytes()))
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, p.MessageBytes())
		if n := testing.AllocsPerRun(100, func() {
			if err := s.DecryptInto(dst, sk, ct); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: Scheme.DecryptInto allocates %v objects/op, want 0", p.Name, n)
		}
	}
}

// TestParseRejectsOutOfRangeWithOffender pins the error text of a rejected
// body now that the range check is folded into unpacking: every body
// parser still names the offending coefficient (the public ReadFrom
// readers decode through these parsers; TestStreamReadNamesOffender
// checks them). Each row of P1 (13 bits), P2 (14 bits) and B1 (three 29-bit
// rows) takes q and 2^w − 1 at each of the 8 positions of its first and
// its last group, in either polynomial of the body, and once in the middle
// of the row.
func TestParseRejectsOutOfRangeWithOffender(t *testing.T) {
	type offender struct {
		poly, row, coef int
		v               uint32
	}
	for _, p := range []*Params{P1(), P2(), B1()} {
		var cases []offender
		for row, m := range p.Basis.Mods {
			for _, v := range []uint32{m.Q, 1<<m.BitLen() - 1} {
				cases = append(cases, offender{1, row, p.N / 2, v})
				for _, group := range []int{0, p.N - 8} {
					for k := range 8 {
						for poly := range 2 {
							cases = append(cases, offender{poly, row, group + k, v})
						}
					}
				}
			}
		}
		src := rng.NewXorshift128(4005)
		clean := []ntt.Poly{randCanonicalPoly(p, src), randCanonicalPoly(p, src)}
		for _, c := range cases {
			polys := []ntt.Poly{slices.Clone(clean[0]), slices.Clone(clean[1])}
			polys[c.poly][c.row*p.N+c.coef] = c.v
			offender := fmt.Sprintf("residue row %d coefficient %d out of range: %d ≥ q%d", c.row, c.coef, c.v, c.row+1)
			check := func(parser string, err error, prefix string) {
				t.Helper()
				if want := prefix + offender; err == nil || err.Error() != want {
					t.Errorf("%s poly %d: %s returned %v, want %q", p.Name, c.poly, parser, err, want)
				}
			}

			body := refBody(p, polys...)
			ct := NewCiphertext(p)
			check("ParseCiphertextBodyInto", ParseCiphertextBodyInto(ct, body), "core: ciphertext: ")
			tag, _ := paramTag(p)
			_, err := ParseCiphertext(p, append([]byte{tag}, body...))
			check("ParseCiphertext", err, "core: ciphertext: ")
			_, err = ParsePublicKeyBody(p, body)
			check("ParsePublicKeyBody", err, "core: public key: ")
			if c.poly == 0 {
				one := refBody(p, polys[0])
				_, err = ParsePrivateKeyBody(p, one)
				check("ParsePrivateKeyBody", err, "core: private key: ")
			}
		}
	}
}

// TestCodecHasNoDataBranches is a static no-branch gate for the message
// codec, the coefficient packing that private keys pass through and the
// vector NTT engine's portable transform kernels. It builds this package's
// test binary without the race detector, disassembles DecodeInto,
// addEncoded, the width kernels, the generic pack and unpack loops and
// ntt's vecForward and vecInverse with go tool objdump, and fails on any
// conditional jump that is neither loop control (a jump the compiler
// attributes to a for statement's line) nor a bounds check (a jump one of
// whose two arms calls a runtime panic, or the prologue's stack check).
// packPoly and unpackPolyInto themselves are not gated: they branch on
// width and length, which are public; likewise VectorEngine.Forward and
// Inverse, which pick the AVX2 kernels (gated from their source by
// ntt.TestAVX2KernelsHaveNoDataBranches) or the portable ones by host and
// modulus. Every gated symbol has a non-inlined caller, so the linker
// keeps it; a missing one fails the test. Negative control: the branching
// oracles refDecode, refAddEncoded and refPackPoly must be flagged.
func TestCodecHasNoDataBranches(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the no-branch gate reads amd64 disassembly; GOARCH is %s", runtime.GOARCH)
	}
	// go test puts its own GOROOT/bin first on the test's PATH.
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "core.test")
	if out, err := exec.Command(goTool, "test", "-c", "-race=false", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building the test binary: %v\n%s", err, out)
	}
	out, err := exec.Command(goTool, "tool", "objdump", "-s", `^ringlwe/internal/(core\.(DecodeInto|addEncoded|(un)?pack(Generic|13|14|29)|refDecode|refAddEncoded|refPackPoly)|ntt\.vec(Forward|Inverse))$`, bin).Output()
	if err != nil {
		t.Fatalf("go tool objdump: %v", err)
	}
	funcs := parseObjdump(t, out)
	isLoop := forLines(t)
	for name, branchFree := range map[string]bool{
		"core.DecodeInto": true, "core.addEncoded": true,
		"core.packGeneric": true, "core.pack13": true, "core.pack14": true, "core.pack29": true,
		"core.unpackGeneric": true, "core.unpack13": true, "core.unpack14": true, "core.unpack29": true,
		"ntt.vecForward": true, "ntt.vecInverse": true,
		"core.refDecode": false, "core.refAddEncoded": false, "core.refPackPoly": false,
	} {
		insts, ok := funcs["ringlwe/internal/"+name]
		if !ok {
			t.Errorf("%s not found in the test binary", name)
			continue
		}
		flagged := dataBranches(insts, isLoop)
		switch {
		case branchFree && len(flagged) > 0:
			t.Errorf("%s has conditional jumps that are neither loop control nor bounds checks:\n%s", name, strings.Join(flagged, "\n"))
		case !branchFree && len(flagged) == 0:
			t.Errorf("negative control: the gate does not flag the branching %s", name)
		}
	}
}

// inst is one disassembled instruction: its address, its source position
// as objdump prints it (file.go:N) and its assembly text.
type inst struct {
	addr uint64
	pos  string
	asm  string
}

// parseObjdump splits go tool objdump output into each TEXT symbol's
// instructions, in address order. An instruction line reads
// "file.go:N, 0xADDR, bytes, asm", separated by runs of tabs.
func parseObjdump(t *testing.T, out []byte) map[string][]inst {
	funcs := make(map[string][]inst)
	var cur string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "TEXT "); ok {
			cur, _, _ = strings.Cut(name, "(SB)")
			continue
		}
		f := strings.FieldsFunc(line, func(r rune) bool { return r == '\t' })
		if cur == "" || len(f) < 4 {
			continue
		}
		addr, err := strconv.ParseUint(strings.TrimPrefix(f[1], "0x"), 16, 64)
		if err != nil {
			t.Fatalf("objdump line %q: %v", line, err)
		}
		funcs[cur] = append(funcs[cur], inst{addr: addr, pos: strings.TrimSpace(f[0]), asm: f[3]})
	}
	return funcs
}

// forLines returns the set of file.go:N positions, keyed by base name as
// objdump prints them, of this package's source files and of ntt's
// vector.go whose line opens a for statement.
func forLines(t *testing.T) map[string]bool {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	lines := make(map[string]bool)
	for _, name := range append(files, "../ntt/vector.go") {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "for ") {
				lines[fmt.Sprintf("%s:%d", filepath.Base(name), i+1)] = true
			}
		}
	}
	return lines
}

// dataBranches lists the conditional jumps of one function that neither
// sit on a line in isLoop nor have an arm — the jump target or the fall
// through — that calls a runtime panic before any conditional jump or
// return. The compiler lays a bounds check out either way round: a jump
// into the panic block, or a jump over an unconditional jump to it.
func dataBranches(insts []inst, isLoop map[string]bool) []string {
	at := make(map[uint64]int, len(insts))
	for i, in := range insts {
		at[in.addr] = i
	}
	var flagged []string
	for k, in := range insts {
		op, arg, _ := strings.Cut(in.asm, " ")
		if !strings.HasPrefix(op, "J") || op == "JMP" || isLoop[in.pos] {
			continue
		}
		if i, ok := at[jumpTarget(arg)]; ok && reachesPanic(insts, at, i) || reachesPanic(insts, at, k+1) {
			continue
		}
		flagged = append(flagged, fmt.Sprintf("  %s\t%#x\t%s", in.pos, in.addr, in.asm))
	}
	return flagged
}

// jumpTarget parses a jump's operand, an absolute address in hex; it
// returns 0, which no instruction has, for anything else.
func jumpTarget(arg string) uint64 {
	target, err := strconv.ParseUint(strings.TrimPrefix(strings.TrimSpace(arg), "0x"), 16, 64)
	if err != nil {
		return 0
	}
	return target
}

// reachesPanic reports whether the code from insts[i], following
// unconditional jumps, calls a runtime panic (an index, slice or shift
// check) or runtime.morestack (the prologue's stack check) before it
// takes a conditional jump or returns.
func reachesPanic(insts []inst, at map[uint64]int, i int) bool {
	for steps := 0; i < len(insts) && steps < len(insts); steps++ {
		op, arg, _ := strings.Cut(insts[i].asm, " ")
		switch {
		case op == "CALL":
			return strings.HasPrefix(arg, "runtime.panic") || strings.HasPrefix(arg, "runtime.goPanic") ||
				strings.HasPrefix(arg, "runtime.morestack")
		case op == "JMP":
			next, ok := at[jumpTarget(arg)]
			if !ok {
				return false
			}
			i = next
		case strings.HasPrefix(op, "J") || op == "RET":
			return false
		default:
			i++
		}
	}
	return false
}

// codecPool is the number of seeded random inputs each codec benchmark
// cycles through: enough that the branch predictor cannot learn the
// inputs, as it would learn one fixed polynomial.
const codecPool = 1024

func BenchmarkDecode(b *testing.B) {
	for _, p := range []*Params{P1(), B1()} {
		b.Run(p.Name, func(b *testing.B) {
			src := rng.NewXorshift128(4101)
			polys := make([]ntt.Poly, codecPool)
			for i := range polys {
				polys[i] = randCanonicalPoly(p, src)
			}
			decode := DecodeInto
			if p.K() > 1 {
				decode = crtDecodeInto
			}
			dst := make([]byte, p.MessageBytes())
			i := 0
			for b.Loop() {
				decode(dst, p, polys[i%codecPool])
				i++
			}
		})
	}
}

func BenchmarkEncode(b *testing.B) {
	for _, p := range []*Params{P1(), B1()} {
		b.Run(p.Name, func(b *testing.B) {
			src := rng.NewXorshift128(4102)
			polys := make([]ntt.Poly, codecPool)
			msgs := make([][]byte, codecPool)
			for i := range polys {
				polys[i] = randCanonicalPoly(p, src)
				msgs[i] = randMessage(src, p.MessageBytes())
			}
			i := 0
			for b.Loop() {
				addEncoded(p, polys[i%codecPool], msgs[i%codecPool])
				i++
			}
		})
	}
}

func BenchmarkParseCiphertext(b *testing.B) {
	for _, p := range []*Params{P1(), B1()} {
		b.Run(p.Name, func(b *testing.B) {
			src := rng.NewXorshift128(4103)
			blobs := make([][]byte, codecPool)
			for i := range blobs {
				blobs[i] = refBody(p, randCanonicalPoly(p, src), randCanonicalPoly(p, src))
			}
			ct := NewCiphertext(p)
			i := 0
			for b.Loop() {
				if err := ParseCiphertextBodyInto(ct, blobs[i%codecPool]); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	}
}

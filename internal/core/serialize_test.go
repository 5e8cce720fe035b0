package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"ringlwe/internal/ntt"
	"ringlwe/internal/rng"
)

func TestPublicKeySerializationRoundTrip(t *testing.T) {
	for _, p := range []*Params{P1(), P2()} {
		s := newScheme(t, p, 21)
		pk, sk, _ := s.GenerateKeys()

		data := pk.Bytes()
		if len(data) != 1+2*p.PolyBytes() {
			t.Fatalf("%s: public key is %d bytes", p.Name, len(data))
		}
		got, err := ParsePublicKey(p, data)
		if err != nil {
			t.Fatal(err)
		}
		if !equalPoly(got.A, pk.A) || !equalPoly(got.P, pk.P) {
			t.Fatalf("%s: public key round trip mismatch", p.Name)
		}

		skData := sk.Bytes()
		gotSk, err := ParsePrivateKey(p, skData)
		if err != nil {
			t.Fatal(err)
		}
		if !equalPoly(gotSk.R2, sk.R2) {
			t.Fatalf("%s: private key round trip mismatch", p.Name)
		}
	}
}

func TestCiphertextSerializationRoundTrip(t *testing.T) {
	p := P1()
	s := newScheme(t, p, 22)
	pk, sk, _ := s.GenerateKeys()
	msg := randMessage(rng.NewXorshift128(23), p.MessageBytes())
	ct, _ := s.Encrypt(pk, msg)

	data := ct.Bytes()
	got, err := ParseCiphertext(p, data)
	if err != nil {
		t.Fatal(err)
	}
	if !equalPoly(got.C1, ct.C1) || !equalPoly(got.C2, ct.C2) {
		t.Fatal("ciphertext round trip mismatch")
	}
	// A parsed ciphertext must still decrypt.
	dec, err := sk.Decrypt(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, msg) {
		t.Log("decryption failure (within LPR failure rate)")
	}
}

func TestParseRejectsWrongSize(t *testing.T) {
	p := P1()
	if _, err := ParsePublicKey(p, make([]byte, 10)); err == nil {
		t.Error("short public key accepted")
	}
	if _, err := ParsePrivateKey(p, make([]byte, 10)); err == nil {
		t.Error("short private key accepted")
	}
	if _, err := ParseCiphertext(p, make([]byte, 10)); err == nil {
		t.Error("short ciphertext accepted")
	}
}

func TestParseRejectsWrongTag(t *testing.T) {
	p := P1()
	s := newScheme(t, p, 24)
	pk, _, _ := s.GenerateKeys()
	data := pk.Bytes()
	data[0] = 2 // P2's tag
	if _, err := ParsePublicKey(p, data); err == nil {
		t.Error("wrong parameter tag accepted")
	}
}

func TestParseRejectsOutOfRangeCoefficients(t *testing.T) {
	p := P1()
	s := newScheme(t, p, 25)
	pk, _, _ := s.GenerateKeys()
	data := pk.Bytes()
	// Force the first 13-bit coefficient to 8191 > q.
	data[1] = 0xFF
	data[2] |= 0x1F
	if _, err := ParsePublicKey(p, data); err == nil {
		t.Error("out-of-range coefficient accepted")
	}
}

func TestCrossParameterParseFails(t *testing.T) {
	p1, p2 := P1(), P2()
	s := newScheme(t, p1, 26)
	pk, _, _ := s.GenerateKeys()
	if _, err := ParsePublicKey(p2, pk.Bytes()); err == nil {
		t.Error("P1 blob parsed under P2")
	}
}

// refPackPoly is the bit-serial packer the word-at-a-time packPoly
// replaced, kept as its oracle: one output bit per inner iteration, ORed
// into a zeroed dst. It branches on every coefficient bit and stays out
// of line, so the no-branch gate uses it as its packing negative control.
//
//go:noinline
func refPackPoly(dst []byte, p ntt.Poly, width uint) {
	bitPos := 0
	for _, c := range p {
		for b := uint(0); b < width; b++ {
			if c>>b&1 == 1 {
				dst[bitPos/8] |= 1 << (bitPos % 8)
			}
			bitPos++
		}
	}
}

// refUnpackPolyInto is the bit-serial oracle of unpackPolyInto.
func refUnpackPolyInto(dst ntt.Poly, src []byte, width uint) {
	bitPos := 0
	for i := range dst {
		var c uint32
		for b := uint(0); b < width; b++ {
			c |= uint32(src[bitPos/8]>>(bitPos%8)&1) << b
			bitPos++
		}
		dst[i] = c
	}
}

// refBody packs polys under p's wire layout with the bit-serial oracle:
// flat at CoeffBits for single-modulus sets, byte-aligned residue rows at
// each channel's width for RNS sets.
func refBody(p *Params, polys ...ntt.Poly) []byte {
	pb := p.PolyBytes()
	out := make([]byte, len(polys)*pb)
	for pi, poly := range polys {
		body := out[pi*pb : (pi+1)*pb]
		if !p.IsRNS() {
			refPackPoly(body, poly, p.CoeffBits())
			continue
		}
		off := 0
		for i := 0; i < p.Basis.K; i++ {
			rb := p.rowBytes(i)
			refPackPoly(body[off:off+rb], poly[i*p.N:(i+1)*p.N], p.Basis.Mods[i].BitLen())
			off += rb
		}
	}
	return out
}

// randCanonicalPoly draws a polynomial whose every coefficient is below its
// row's modulus, so it survives the parsers' range checks.
func randCanonicalPoly(p *Params, src *rng.Xorshift128) ntt.Poly {
	poly := p.newPoly()
	for i := range poly {
		q := p.Q
		if p.IsRNS() {
			q = p.Basis.Moduli[i/p.N]
		}
		poly[i] = src.Uint32() % q
	}
	return poly
}

// TestPackMatchesBitSerial pins packPoly and unpackPolyInto, and the
// generic loops they fall back to, to the bit-serial oracle byte for byte
// at every width from 1 to 32. Pack inputs carry bits above width (which
// must be masked off) and pack into a dirty buffer (every covered byte
// must be overwritten). Source and destination slices are cut to the
// exact packed length, so a load or store past the end panics. Length 13
// ends on a partial byte; the other lengths run the width kernels at 13,
// 14 and 29 bits.
func TestPackMatchesBitSerial(t *testing.T) {
	src := rng.NewXorshift128(31)
	unpackers := map[string]func(ntt.Poly, []byte, uint, uint32) bool{
		"unpackPolyInto": unpackPolyInto,
		"unpackGeneric": func(dst ntt.Poly, src []byte, width uint, q uint32) bool {
			return unpackGeneric(dst, src, width, uint64(q)-1)>>63 == 0
		},
	}
	for width := uint(1); width <= 32; width++ {
		for _, n := range []int{8, 13, 64, 1024} {
			nb := (n*int(width) + 7) / 8
			poly := make(ntt.Poly, n)
			for i := range poly {
				poly[i] = src.Uint32()
			}
			want := make([]byte, nb)
			refPackPoly(want, poly, width)
			for name, pack := range map[string]func([]byte, ntt.Poly, uint){"packPoly": packPoly, "packGeneric": packGeneric} {
				got := bytes.Repeat([]byte{0xA5}, nb)
				pack(got, poly, width)
				if !bytes.Equal(got, want) {
					t.Fatalf("width %d, n %d: %s differs from the bit-serial oracle", width, n, name)
				}
			}

			packed := make([]byte, nb)
			for i := range packed {
				packed[i] = byte(src.Uint32())
			}
			wantPoly := make(ntt.Poly, n)
			refUnpackPolyInto(wantPoly, packed, width)
			// Against q = 2^width − 1, only an all-ones field is out of range.
			q := uint32(uint64(1)<<width - 1)
			for name, unpack := range unpackers {
				gotPoly := make(ntt.Poly, n)
				ok := unpack(gotPoly, packed, width, q)
				if !equalPoly(gotPoly, wantPoly) {
					t.Fatalf("width %d, n %d: %s differs from the bit-serial oracle", width, n, name)
				}
				if want := !slices.Contains(wantPoly, q); ok != want {
					t.Fatalf("width %d, n %d: %s reports in range %v, want %v", width, n, name, ok, want)
				}
			}
		}
	}
}

// TestUnpackRangeEveryPosition checks the folded range check of each
// width kernel against the real moduli: 13 bits against P1's 7681, 14
// against P2's and A1's 12289, 29 against each of B1's moduli. Random
// fields almost never exceed a 29-bit modulus, so TestPackMatchesBitSerial
// leaves that verdict untested. On a short 64-coefficient row and on a
// full row, a row of q − 1 everywhere is accepted, and q or 2^w − 1 at any
// of the 8 positions of the first or the last group is rejected but still
// unpacked.
func TestUnpackRangeEveryPosition(t *testing.T) {
	type modulus struct {
		width uint
		q     uint32
	}
	mods := []modulus{{13, P1().Q}, {14, P2().Q}}
	for _, q := range B1Moduli {
		mods = append(mods, modulus{29, q})
	}
	for _, m := range mods {
		for _, n := range []int{64, 1024} {
			row := make(ntt.Poly, n)
			for i := range row {
				row[i] = m.q - 1
			}
			packed := make([]byte, n/8*int(m.width))
			refPackPoly(packed, row, m.width)
			got := make(ntt.Poly, n)
			if !unpackPolyInto(got, packed, m.width, m.q) || !equalPoly(got, row) {
				t.Errorf("%d bits, q %d, n %d: a row of q − 1 is rejected or misread", m.width, m.q, n)
			}
			for _, group := range []int{0, n - 8} {
				for k := range 8 {
					for _, v := range []uint32{m.q, 1<<m.width - 1} {
						bad := slices.Clone(row)
						bad[group+k] = v
						clear(packed)
						refPackPoly(packed, bad, m.width)
						if unpackPolyInto(got, packed, m.width, m.q) || !equalPoly(got, bad) {
							t.Errorf("%d bits, q %d, n %d: %d at coefficient %d is accepted or misread", m.width, m.q, n, v, group+k)
						}
					}
				}
			}
		}
	}
}

// TestBodiesMatchBitSerial checks the append path and the body unpacker
// against bodies packed by the bit-serial oracle, on every shipped
// parameter set: P1 (13 bits), P2 and A1 (14 bits) and B1 (three 29-bit
// residue rows).
func TestBodiesMatchBitSerial(t *testing.T) {
	src := rng.NewXorshift128(32)
	for _, p := range []*Params{P1(), P2(), A1(), B1()} {
		a, b := randCanonicalPoly(p, src), randCanonicalPoly(p, src)
		want := refBody(p, a, b)

		if got := appendPolys([]byte{0xEE}, p, a, b); !bytes.Equal(got[1:], want) || got[0] != 0xEE {
			t.Fatalf("%s: appendPolys differs from the bit-serial oracle", p.Name)
		}
		ga, gb := p.newPoly(), p.newPoly()
		unpackPolyP(ga, p, want[:p.PolyBytes()])
		unpackPolyP(gb, p, want[p.PolyBytes():])
		if !equalPoly(ga, a) || !equalPoly(gb, b) {
			t.Fatalf("%s: unpackPolyP does not invert the oracle body", p.Name)
		}
	}
}

// serializeFixture returns a fresh ciphertext under p and its legacy
// tagged blob.
func serializeFixture(p *Params) (*Ciphertext, []byte) {
	src := rng.NewXorshift128(33)
	ct := NewCiphertext(p)
	ct.C1, ct.C2 = randCanonicalPoly(p, src), randCanonicalPoly(p, src)
	return ct, ct.Bytes()
}

// TestParseMarshalZeroAlloc pins the legacy ciphertext parse and marshal
// paths at zero allocations per call on P1 and B1.
func TestParseMarshalZeroAlloc(t *testing.T) {
	for _, p := range []*Params{P1(), B1()} {
		ct, blob := serializeFixture(p)
		dst := NewCiphertext(p)
		if n := testing.AllocsPerRun(50, func() {
			if err := ParseCiphertextInto(dst, blob); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: ParseCiphertextInto allocates %v times per op, want 0", p.Name, n)
		}
		out := make([]byte, len(blob))
		if n := testing.AllocsPerRun(50, func() {
			if err := ct.MarshalInto(out); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: MarshalInto allocates %v times per op, want 0", p.Name, n)
		}
		if !bytes.Equal(out, blob) || !equalPoly(dst.C1, ct.C1) || !equalPoly(dst.C2, ct.C2) {
			t.Errorf("%s: parse/marshal round trip mismatch", p.Name)
		}
	}
}

func BenchmarkParseCiphertextInto(b *testing.B) {
	for _, p := range []*Params{P1(), B1()} {
		b.Run(p.Name, func(b *testing.B) {
			_, blob := serializeFixture(p)
			dst := NewCiphertext(p)
			b.SetBytes(int64(len(blob)))
			b.ReportAllocs()
			for b.Loop() {
				if err := ParseCiphertextInto(dst, blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMarshalInto(b *testing.B) {
	for _, p := range []*Params{P1(), B1()} {
		b.Run(p.Name, func(b *testing.B) {
			ct, blob := serializeFixture(p)
			b.SetBytes(int64(len(blob)))
			b.ReportAllocs()
			for b.Loop() {
				if err := ct.MarshalInto(blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// rowWidths are the packed widths of the registered sets' rows: 13 bits
// for P1, 14 for P2 and A1, 29 for each of B1's three rows.
var rowWidths = []uint{13, 14, 29}

// BenchmarkPackRow and BenchmarkUnpackRow time one 1024-coefficient row at
// each registered width three ways: packPoly/unpackPolyInto, which run the
// width's kernel; the generic word-at-a-time loop that other widths fall
// back to; and the bit-serial oracle. A kernel earns its place only while
// its row beats the generic one.
func BenchmarkPackRow(b *testing.B) {
	src := rng.NewXorshift128(34)
	poly := make(ntt.Poly, 1024)
	for i := range poly {
		poly[i] = src.Uint32()
	}
	for _, w := range rowWidths {
		dst := make([]byte, len(poly)/8*int(w))
		b.Run(fmt.Sprintf("%dbit", w), func(b *testing.B) {
			b.Run("kernel", func(b *testing.B) {
				for b.Loop() {
					packPoly(dst, poly, w)
				}
			})
			b.Run("generic", func(b *testing.B) {
				for b.Loop() {
					packGeneric(dst, poly, w)
				}
			})
			b.Run("bit-serial", func(b *testing.B) {
				for b.Loop() {
					refPackPoly(dst, poly, w)
				}
			})
		})
	}
}

func BenchmarkUnpackRow(b *testing.B) {
	src := rng.NewXorshift128(35)
	poly := make(ntt.Poly, 1024)
	for _, w := range rowWidths {
		packed := make([]byte, len(poly)/8*int(w))
		for i := range packed {
			packed[i] = byte(src.Uint32())
		}
		q := uint32(1) << w // every field is in range
		b.Run(fmt.Sprintf("%dbit", w), func(b *testing.B) {
			b.Run("kernel", func(b *testing.B) {
				for b.Loop() {
					unpackPolyInto(poly, packed, w, q)
				}
			})
			b.Run("generic", func(b *testing.B) {
				for b.Loop() {
					unpackGeneric(poly, packed, w, uint64(q)-1)
				}
			})
			b.Run("bit-serial", func(b *testing.B) {
				for b.Loop() {
					refUnpackPolyInto(poly, packed, w)
				}
			})
		})
	}
}

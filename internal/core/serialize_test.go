package core

import (
	"bytes"
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
// into a zeroed dst.
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

// TestPackMatchesBitSerial pins packPoly and unpackPolyInto to the
// bit-serial oracle byte for byte at every width from 1 to 32. Pack inputs
// carry bits above width (which must be masked off) and pack into a dirty
// buffer (every covered byte must be overwritten). Source and destination
// slices are cut to the exact packed length, so a load or store past the
// end panics. Length 13 ends on a partial byte.
func TestPackMatchesBitSerial(t *testing.T) {
	src := rng.NewXorshift128(31)
	for width := uint(1); width <= 32; width++ {
		for _, n := range []int{8, 13, 64, 1024} {
			nb := (n*int(width) + 7) / 8
			poly := make(ntt.Poly, n)
			for i := range poly {
				poly[i] = src.Uint32()
			}
			want := make([]byte, nb)
			refPackPoly(want, poly, width)
			got := bytes.Repeat([]byte{0xA5}, nb)
			packPoly(got, poly, width)
			if !bytes.Equal(got, want) {
				t.Fatalf("width %d, n %d: packPoly differs from the bit-serial oracle", width, n)
			}

			packed := make([]byte, nb)
			for i := range packed {
				packed[i] = byte(src.Uint32())
			}
			wantPoly := make(ntt.Poly, n)
			refUnpackPolyInto(wantPoly, packed, width)
			gotPoly := make(ntt.Poly, n)
			// Against q = 2^width − 1, only an all-ones field is out of range.
			q := uint32(uint64(1)<<width - 1)
			ok := unpackPolyInto(gotPoly, packed, width, q)
			if !equalPoly(gotPoly, wantPoly) {
				t.Fatalf("width %d, n %d: unpackPolyInto differs from the bit-serial oracle", width, n)
			}
			if want := !slices.Contains(wantPoly, q); ok != want {
				t.Fatalf("width %d, n %d: unpackPolyInto reports in range %v, want %v", width, n, ok, want)
			}
		}
	}
}

// TestBodiesMatchBitSerial checks the one-shot append path and the
// streaming chunk path against bodies packed by the bit-serial oracle, on
// every shipped parameter set: P1 (13 bits), P2 and A1 (14 bits) and B1
// (three 30-bit residue rows).
func TestBodiesMatchBitSerial(t *testing.T) {
	src := rng.NewXorshift128(32)
	for _, p := range []*Params{P1(), P2(), A1(), B1()} {
		a, b := randCanonicalPoly(p, src), randCanonicalPoly(p, src)
		want := refBody(p, a, b)

		if got := appendPolys([]byte{0xEE}, p, a, b); !bytes.Equal(got[1:], want) || got[0] != 0xEE {
			t.Fatalf("%s: appendPolys differs from the bit-serial oracle", p.Name)
		}
		var streamed bytes.Buffer
		n, err := writePolysTo(&streamed, p, a, b)
		if err != nil || n != int64(len(want)) || !bytes.Equal(streamed.Bytes(), want) {
			t.Fatalf("%s: writePolysTo differs from the bit-serial oracle (n=%d, err=%v)", p.Name, n, err)
		}

		ga, gb := p.newPoly(), p.newPoly()
		n, err = readPolysFrom(bytes.NewReader(want), p, ga, gb)
		if err != nil || n != int64(len(want)) || !equalPoly(ga, a) || !equalPoly(gb, b) {
			t.Fatalf("%s: readPolysFrom does not invert the oracle body (n=%d, err=%v)", p.Name, n, err)
		}
		ga, gb = p.newPoly(), p.newPoly()
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

// BenchmarkPackRow and BenchmarkUnpackRow time one 1024-coefficient row
// at B1's 30-bit width, word-at-a-time against the bit-serial oracle.
func BenchmarkPackRow(b *testing.B) {
	src := rng.NewXorshift128(34)
	poly := make(ntt.Poly, 1024)
	for i := range poly {
		poly[i] = src.Uint32()
	}
	dst := make([]byte, 1024*30/8)
	b.Run("word", func(b *testing.B) {
		for b.Loop() {
			packPoly(dst, poly, 30)
		}
	})
	b.Run("bit-serial", func(b *testing.B) {
		for b.Loop() {
			refPackPoly(dst, poly, 30)
		}
	})
}

func BenchmarkUnpackRow(b *testing.B) {
	src := rng.NewXorshift128(35)
	packed := make([]byte, 1024*30/8)
	for i := range packed {
		packed[i] = byte(src.Uint32())
	}
	poly := make(ntt.Poly, 1024)
	b.Run("word", func(b *testing.B) {
		for b.Loop() {
			unpackPolyInto(poly, packed, 30, 1<<30)
		}
	})
	b.Run("bit-serial", func(b *testing.B) {
		for b.Loop() {
			refUnpackPolyInto(poly, packed, 30)
		}
	})
}

package ringlwe

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestB1PublicParams pins the public surface of the RNS set: the accessors
// that replace Q, the wire registration, and the size arithmetic.
func TestB1PublicParams(t *testing.T) {
	p := B1()
	if !p.IsRNS() {
		t.Fatal("B1().IsRNS() = false")
	}
	if q := p.Q(); q != 0 {
		t.Fatalf("Q() = %d for RNS set, want 0", q)
	}
	mods := p.Moduli()
	if len(mods) != 3 {
		t.Fatalf("Moduli() has %d entries, want 3", len(mods))
	}
	mods[0] = 1 // must be a copy
	if p.Moduli()[0] == 1 {
		t.Fatal("Moduli() aliases internal state")
	}
	if p.QBits() != 87 {
		t.Fatalf("QBits() = %d, want 87", p.QBits())
	}
	if got := P1().QBits(); got != 13 {
		t.Fatalf("P1 QBits() = %d, want 13", got)
	}
	if P1().IsRNS() || P1().Moduli() != nil {
		t.Fatal("P1 reports RNS surface")
	}
	if id := p.WireID(); id != 4 {
		t.Fatalf("WireID() = %d, want 4", id)
	}
	if p.MaxAddends() < 1000 {
		t.Fatalf("MaxAddends() = %d, want ≥ 1000", p.MaxAddends())
	}
	if p.MessageSize() != 128 {
		t.Fatalf("MessageSize() = %d, want 128", p.MessageSize())
	}
}

// TestB1SchemeRoundTrip runs the public API end to end on B1, including
// the self-describing wire format and the KEM.
func TestB1SchemeRoundTrip(t *testing.T) {
	s := NewDeterministic(B1(), 42)
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, B1().MessageSize())
	for i := range msg {
		msg[i] = byte(i ^ 0x5c)
	}
	ct, err := s.Encrypt(pk, msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Decrypt(sk, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("decrypt mismatch")
	}

	// Self-describing round trips recover B1 from the header.
	blob, err := pk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	pk2, err := ParseAnyPublicKey(blob)
	if err != nil {
		t.Fatal(err)
	}
	if pk2.Params().Name() != "B1" {
		t.Fatalf("recovered set %q, want B1", pk2.Params().Name())
	}
	ctBlob, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := ParseAnyCiphertext(ctBlob)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := s.Decrypt(sk, ct2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, msg) {
		t.Fatal("wire round-tripped ciphertext decrypt mismatch")
	}

	// Kind confusion: a B1 ciphertext blob must not parse as a public key.
	if _, err := ParseAnyPublicKey(ctBlob); err == nil {
		t.Fatal("ciphertext blob parsed as public key")
	}

	// KEM round trip.
	ek, key1, err := s.Encapsulate(pk)
	if err != nil {
		t.Fatal(err)
	}
	key2, err := s.Decapsulate(sk, ek)
	if err != nil {
		t.Fatal(err)
	}
	if key1 != key2 {
		t.Fatal("KEM keys differ")
	}
	ekBlob, err := ek.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	p, ek2, err := ParseAnyEncapsulatedKey(ekBlob)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "B1" || !bytes.Equal(ek2, ek) {
		t.Fatal("encapsulation blob round trip mismatch")
	}
}

// TestWireSizeAudit checks every registered parameter set — B1's multi-row
// bodies included — serializes all five wire kinds within MaxWireSize, so
// the streaming readers' header-derived length commitment accepts every
// built-in set while still bounding hostile headers.
func TestWireSizeAudit(t *testing.T) {
	registryInit()
	paramsRegistry.mu.RLock()
	sets := make([]*Params, 0, len(paramsRegistry.byID))
	for _, p := range paramsRegistry.byID {
		sets = append(sets, p)
	}
	paramsRegistry.mu.RUnlock()
	if len(sets) < 4 {
		t.Fatalf("registry has %d sets, want ≥ 4", len(sets))
	}
	for _, p := range sets {
		maxBody := 2 * p.inner.PolyBytes() // pk and ct bodies are the largest
		for what, body := range map[string]int{
			"public key":    2 * p.inner.PolyBytes(),
			"private key":   p.inner.PolyBytes(),
			"ciphertext":    2 * p.inner.PolyBytes(),
			"encapsulation": p.EncapsulationSize(),
			"aggregate":     aggregateSubHeaderSize + 2*p.inner.PolyBytes(),
		} {
			if err := checkWireSize(what, body); err != nil {
				t.Errorf("%s: %s exceeds MaxWireSize: %v", p.Name(), what, err)
			}
		}
		if wireHeaderSize+maxBody > MaxWireSize {
			t.Errorf("%s: largest object %d bytes exceeds MaxWireSize %d", p.Name(), wireHeaderSize+maxBody, MaxWireSize)
		}
	}
}

// TestB1ResidueRowSmuggling rejects malformed residue rows at every parse
// surface: truncated bodies, trailing bytes, and per-row coefficients
// packed above their channel modulus (which would alias another residue
// mod qᵢ and silently corrupt the CRT reconstruction if accepted).
func TestB1ResidueRowSmuggling(t *testing.T) {
	s := NewDeterministic(B1(), 77)
	pk, _, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := s.Encrypt(pk, make([]byte, B1().MessageSize()))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// Truncation anywhere in the residue rows.
	for _, cut := range []int{wireHeaderSize, wireHeaderSize + 1, len(blob) / 3, len(blob) - 1} {
		if _, err := ParseAnyCiphertext(blob[:cut]); err == nil {
			t.Errorf("truncated blob (%d of %d bytes) accepted", cut, len(blob))
		}
	}
	// Oversized body.
	if _, err := ParseAnyCiphertext(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Error("oversized blob accepted")
	}

	// Out-of-range residues in EACH channel row. Row i of the first
	// polynomial starts at the sum of the preceding row widths; setting a
	// full row to 0xFF drives every 29-bit field to 2²⁹−1 > qᵢ.
	p := B1()
	rowStart := wireHeaderSize
	for i, q := range p.Moduli() {
		width := 0
		for b := q; b > 0; b >>= 1 {
			width++
		}
		rb := (p.N()*width + 7) / 8
		bad := append([]byte(nil), blob...)
		for j := rowStart; j < rowStart+rb; j++ {
			bad[j] = 0xFF
		}
		if _, err := ParseAnyCiphertext(bad); err == nil {
			t.Errorf("channel %d (q=%d): out-of-range residue row accepted", i, q)
		}
		rowStart += rb
	}
}

// TestB1AggregateWire drives a >255-addend aggregation — impossible on any
// single-modulus set — through the aggregate wire format, checking the
// addend count survives and the over-cap rejection still bites.
func TestB1AggregateWire(t *testing.T) {
	s := NewDeterministic(B1(), 7)
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	want := make([]byte, B1().MessageSize())
	cts := make([]*Ciphertext, n)
	msg := make([]byte, B1().MessageSize())
	for i := range cts {
		for j := range msg {
			msg[j] = byte(i + 3*j)
			want[j] ^= msg[j]
		}
		ct, err := s.Encrypt(pk, msg)
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = ct
	}
	agg := NewCiphertext(B1())
	if err := s.AggregateInto(agg, cts); err != nil {
		t.Fatal(err)
	}
	if agg.Addends() != n {
		t.Fatalf("Addends() = %d, want %d", agg.Addends(), n)
	}
	blob, err := Aggregate{agg}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseAnyAggregate(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Addends() != n {
		t.Fatalf("transported Addends = %d, want %d", back.Addends(), n)
	}
	got, err := s.Decrypt(sk, back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("aggregate decrypt mismatch")
	}

	// A forged count above B1's budget is still rejected.
	forged := append([]byte(nil), blob...)
	for i := wireHeaderSize; i < wireHeaderSize+aggregateSubHeaderSize; i++ {
		forged[i] = 0xFF
	}
	if _, err := ParseAnyAggregate(forged); !errors.Is(err, ErrNoiseBudget) {
		t.Fatalf("forged addend count: got %v, want ErrNoiseBudget", err)
	}
}

// TestCustomRNSModuliCount pins CustomRNS to its documented 2–4 moduli: a
// single prime is Custom's job (and would report IsRNS false), five
// exceed the CRT accumulator.
func TestCustomRNSModuliCount(t *testing.T) {
	_, err := CustomRNS("x", 256, []uint32{7681}, 1131, 100)
	if err == nil {
		t.Fatal("CustomRNS accepted a single modulus")
	}
	if !strings.Contains(err.Error(), "Custom") {
		t.Errorf("single-modulus error %q does not point to Custom", err)
	}
	if _, err := CustomRNS("x", 256, nil, 1131, 100); err == nil {
		t.Fatal("CustomRNS accepted no moduli")
	}
	if _, err := CustomRNS("x", 256, []uint32{7681, 10753, 11777, 12289, 13313}, 1131, 100); err == nil {
		t.Fatal("CustomRNS accepted five moduli")
	}
	p, err := CustomRNS("x", 256, []uint32{7681, 12289}, 1131, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsRNS() || p.Q() != 0 || len(p.Moduli()) != 2 {
		t.Fatalf("two-modulus set: IsRNS=%v Q=%d Moduli=%v", p.IsRNS(), p.Q(), p.Moduli())
	}
}

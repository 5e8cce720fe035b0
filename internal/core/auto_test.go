package core

import (
	"testing"

	"ringlwe/internal/rng"
	"ringlwe/internal/sampler"
)

// bigQ is the first prime above 2²⁹ with q ≡ 1 (mod 32): the barrett path
// accepts it, the vector kernels' bound lemma (4q ≤ 2³¹) does not.
const bigQ = 536871233

// refusedSets builds one parameter set per way the vector kernels refuse
// tables: a dimension below one lane block per stride class (single
// modulus and RNS) and a modulus beyond the bound lemma.
func refusedSets(t *testing.T) map[string]*Params {
	t.Helper()
	tiny, err := NewParams("tiny", 8, 7681, 1131, 100, 90)
	if err != nil {
		t.Fatal(err)
	}
	tinyRNS, err := NewRNSParams("tiny-rns", 8, []uint32{17, 97, 113}, 1131, 100, 90)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := NewParams("wide-q", 16, bigQ, 1131, 100, 90)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Params{"n=8": tiny, "n=8 rns": tinyRNS, "q>2^29": wide}
}

// TestAutoResolution pins the default rule in NewWithOptions: with no
// options, or "auto", every shipped set — and every B1 residue channel —
// runs the vector engine and the knuth-yao sampler, and still round-trips.
func TestAutoResolution(t *testing.T) {
	for _, p := range []*Params{P1(), P2(), A1(), B1()} {
		for _, name := range []string{"", "auto"} {
			s, err := NewWithOptions(p, rng.NewXorshift128(7), Options{Engine: name, Sampler: name})
			if err != nil {
				t.Fatalf("%s Options{%q}: %v", p.Name, name, err)
			}
			if got := s.Engine(); got != "vector" {
				t.Errorf("%s Options{%q}: engine %q, want vector", p.Name, name, got)
			}
			for i, e := range s.runner.Engines() {
				if e.Name() != "vector" {
					t.Errorf("%s channel %d: engine %q, want vector", p.Name, i, e.Name())
				}
			}
			if got := s.Sampler(); got != sampler.Default {
				t.Errorf("%s Options{%q}: sampler %q, want %q", p.Name, name, got, sampler.Default)
			}
		}
		s, err := New(p, rng.NewXorshift128(7))
		if err != nil {
			t.Fatal(err)
		}
		if s.Engine() != "vector" {
			t.Errorf("%s: New resolved engine %q, want vector", p.Name, s.Engine())
		}
		pk, sk, err := s.GenerateKeys()
		if err != nil {
			t.Fatal(err)
		}
		msg := make([]byte, p.MessageBytes())
		msg[0], msg[len(msg)-1] = 0xA5, 0x5A
		ct, err := s.Encrypt(pk, msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		for i := range msg {
			if got[i] != msg[i] {
				t.Fatalf("%s: default-resolved scheme failed to round-trip at byte %d", p.Name, i)
			}
		}
	}
}

// TestAutoResolutionFallback: a set the vector kernels refuse resolves to
// barrett, through New and, for RNS sets, through Basis.ResolveEngines.
func TestAutoResolutionFallback(t *testing.T) {
	for label, p := range refusedSets(t) {
		s, err := New(p, rng.NewXorshift128(7))
		if err != nil {
			t.Fatalf("%s: New: %v", label, err)
		}
		if s.Engine() != "barrett" {
			t.Errorf("%s: New resolved engine %q, want barrett", label, s.Engine())
		}
		if p.IsRNS() {
			engs, err := p.Basis.ResolveEngines("auto")
			if err != nil {
				t.Fatalf("%s: ResolveEngines: %v", label, err)
			}
			for i, e := range engs {
				if e.Name() != "barrett" {
					t.Errorf("%s channel %d: engine %q, want barrett", label, i, e.Name())
				}
			}
		}
	}
}

// TestAutoResolutionForcedFailsLoudly: a named backend is forced — used
// verbatim — so "vector" over a set it refuses fails construction instead
// of falling back to barrett the way the unnamed default does.
func TestAutoResolutionForcedFailsLoudly(t *testing.T) {
	for label, p := range refusedSets(t) {
		if _, err := NewWithOptions(p, rng.NewXorshift128(7), Options{Engine: "vector"}); err == nil {
			t.Errorf("%s: explicit vector engine did not fail construction", label)
		}
	}
}

// TestExplicitNamesStillFailLoudly: auto-resolution fallback must not
// leak into the explicit-name path.
func TestExplicitNamesStillFailLoudly(t *testing.T) {
	if _, err := NewWithOptions(P1(), rng.NewXorshift128(7), Options{Engine: "bogus"}); err == nil {
		t.Error("explicit unregistered engine did not fail")
	}
	if _, err := NewWithOptions(B1(), rng.NewXorshift128(7), Options{Engine: "bogus"}); err == nil {
		t.Error("explicit unregistered engine did not fail over an RNS set")
	}
	if _, err := NewWithOptions(P1(), rng.NewXorshift128(7), Options{Sampler: "bogus"}); err == nil {
		t.Error("explicit unregistered sampler did not fail")
	}
}

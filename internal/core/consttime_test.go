package core

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"ringlwe/internal/ntt"
	"ringlwe/internal/rng"
)

// The constant-time decoder must agree with the branchy one on every
// possible coefficient value — exhaustive over [0, q).
func TestDecodeConstantTimeExhaustive(t *testing.T) {
	for _, p := range []*Params{P1(), P2()} {
		poly := make(ntt.Poly, p.N)
		a, b := make([]byte, p.MessageBytes()), make([]byte, p.MessageBytes())
		for c := uint32(0); c < p.Q; c += uint32(p.N) {
			// Fill the polynomial with a window of consecutive values so
			// each pass covers N coefficients.
			for i := 0; i < p.N; i++ {
				v := c + uint32(i)
				if v >= p.Q {
					v = p.Q - 1
				}
				poly[i] = v
			}
			DecodeInto(a, p, poly)
			DecodeConstantTimeInto(b, p, poly)
			if !bytes.Equal(a, b) {
				t.Fatalf("%s: decoders disagree in window starting at %d", p.Name, c)
			}
		}
	}
}

func TestEncodeConstantTimeMatchesEncode(t *testing.T) {
	p := P1()
	src := rng.NewXorshift128(77)
	for trial := 0; trial < 100; trial++ {
		msg := randMessage(src, p.MessageBytes())
		a, b := p.newPoly(), p.newPoly()
		addEncoded(p, a, msg)
		AddEncodedConstantTime(p, b, msg)
		if !equalPoly(a, b) {
			t.Fatal("encoders disagree")
		}
	}
	// The message length is checked where encryption takes the message.
	s, err := NewWithOptions(p, rng.NewXorshift128(78), Options{ConstantTimeDecode: true})
	if err != nil {
		t.Fatal(err)
	}
	pk, _, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Encrypt(pk, make([]byte, 3)); err == nil {
		t.Fatal("short message accepted")
	}
}

// End to end: a scheme round trip where decoding goes through the
// constant-time path.
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
	DecodeConstantTimeInto(got, p, mprime)
	DecodeInto(want, p, mprime)
	if !bytes.Equal(got, want) {
		t.Fatal("constant-time decode diverges from reference on a real decryption")
	}
}

func BenchmarkDecodeBranchy(b *testing.B) {
	p := P1()
	poly := make(ntt.Poly, p.N)
	for i := range poly {
		poly[i] = uint32(i*29) % p.Q
	}
	dst := make([]byte, p.MessageBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecodeInto(dst, p, poly)
	}
}

func BenchmarkDecodeConstantTime(b *testing.B) {
	p := P1()
	poly := make(ntt.Poly, p.N)
	for i := range poly {
		poly[i] = uint32(i*29) % p.Q
	}
	dst := make([]byte, p.MessageBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecodeConstantTimeInto(dst, p, poly)
	}
}

// TestDecoderChosenOnce pins that the message decoder is picked in one
// place: across the package's non-test files, DecodeInto and
// DecodeConstantTimeInto are each called from decryptInto and nowhere
// else, so every decryption path honours the scheme's ConstantTimeDecode.
func TestDecoderChosenOnce(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	callers := map[string]map[string]bool{"DecodeInto": {}, "DecodeConstantTimeInto": {}}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && callers[id.Name] != nil {
						callers[id.Name][fn.Name.Name] = true
					}
				}
				return true
			})
		}
	}
	for decoder, fns := range callers {
		if len(fns) != 1 || !fns["decryptInto"] {
			t.Errorf("%s is called from %v, want only decryptInto", decoder, fns)
		}
	}
}

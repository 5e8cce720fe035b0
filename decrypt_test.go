package ringlwe

import (
	"bytes"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneShotDecryptHonoursProfile pins that no scheme path decrypts
// through the scheme-less PrivateKey.Decrypt, which runs on the basis's
// default engines whatever the profile: across the package's non-test
// files, only (*PrivateKey).Decrypt itself may make a one-argument
// .Decrypt(ct) call. Scheme.Decrypt, Decapsulate and DecapsulateCCA must
// go through the scheme's engines.
func TestOneShotDecryptHonoursProfile(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
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
			if !ok || funcName(fn) == "(*PrivateKey).Decrypt" {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Decrypt" {
					t.Errorf("%s: %s calls the scheme-less, default-engine .Decrypt",
						fset.Position(call.Pos()), funcName(fn))
				}
				return true
			})
		}
	}
}

// funcName renders fn as Name or (Recv).Name, e.g. (*PrivateKey).Decrypt.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		return "(*" + star.X.(*ast.Ident).Name + ")." + fn.Name.Name
	}
	return "(" + recv.(*ast.Ident).Name + ")." + fn.Name.Name
}

// TestOneShotDecryptConsumesNoRandomness runs two twin deterministic
// schemes through the same encryptions and encapsulations; one of them also
// runs a one-shot Decrypt, Decapsulate and DecapsulateCCA after each. The
// twins' outputs must stay byte-identical: one-shot decryption draws no
// randomness and forks no workspace off the base source.
func TestOneShotDecryptConsumesNoRandomness(t *testing.T) {
	for _, p := range []*Params{P1(), B1()} {
		for _, prof := range []struct {
			name string
			opts []Option
		}{{"default", nil}, {"reference", []Option{Reference()}}, {"constant-time", []Option{ConstantTime()}}} {
			plain := oneShotTranscript(t, NewDeterministic(p, 11, prof.opts...), p, false)
			mixed := oneShotTranscript(t, NewDeterministic(p, 11, prof.opts...), p, true)
			if len(plain) != len(mixed) {
				t.Fatalf("%s/%s: transcripts have %d and %d entries", p.Name(), prof.name, len(plain), len(mixed))
			}
			for i := range plain {
				if !bytes.Equal(plain[i], mixed[i]) {
					t.Errorf("%s/%s: output %d differs once one-shot decryption is interleaved", p.Name(), prof.name, i)
				}
			}
		}
	}
}

// oneShotTranscript records every output of a fixed sequence of one-shot
// key generations, encryptions and encapsulations on s. With decrypt set,
// each round also decrypts and decapsulates what it produced.
func oneShotTranscript(t *testing.T, s *Scheme, p *Params, decrypt bool) [][]byte {
	t.Helper()
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	kp, err := s.GenerateCCAKeys()
	if err != nil {
		t.Fatal(err)
	}
	out := [][]byte{pk.Bytes(), sk.Bytes(), kp.Public.Bytes()}
	msg := make([]byte, p.MessageSize())
	for round := 0; round < 3; round++ {
		msg[0] = byte(round)
		ct, err := s.Encrypt(pk, msg)
		if err != nil {
			t.Fatal(err)
		}
		if decrypt {
			if _, err := s.Decrypt(sk, ct); err != nil {
				t.Fatal(err)
			}
		}
		blob, key, err := s.Encapsulate(pk)
		if err != nil {
			t.Fatal(err)
		}
		if decrypt {
			// An intrinsic decryption failure is in-spec here; only the
			// randomness stream is under test.
			if _, err := s.Decapsulate(sk, blob); err != nil && !errors.Is(err, ErrDecapsulation) {
				t.Fatal(err)
			}
		}
		cblob, ckey, err := s.EncapsulateCCA(kp.Public)
		if err != nil {
			t.Fatal(err)
		}
		if decrypt {
			if _, err := s.DecapsulateCCA(kp, cblob); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, ct.Bytes(), blob, key[:], cblob, ckey[:])
	}
	return out
}

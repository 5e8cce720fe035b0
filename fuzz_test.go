package ringlwe

import (
	"bytes"
	"testing"
)

// Native fuzz targets for the deserialization and decapsulation surfaces —
// the two places attacker-controlled bytes enter the library. Run the seed
// corpus as part of `go test`; fuzz longer with `go test -fuzz=Fuzz...`.

func FuzzParseCiphertext(f *testing.F) {
	p := P1()
	s := NewDeterministic(p, 9001)
	pk, _, err := s.GenerateKeys()
	if err != nil {
		f.Fatal(err)
	}
	ct, err := s.Encrypt(pk, make([]byte, p.MessageSize()))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ct.Bytes())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 833))
	f.Fuzz(func(t *testing.T, data []byte) {
		parsed, err := ParseCiphertext(p, data)
		if err != nil {
			return
		}
		// Anything accepted must re-serialize identically.
		if !bytes.Equal(parsed.Bytes(), data) {
			t.Fatalf("accepted ciphertext does not round-trip")
		}
	})
}

func FuzzParsePublicKey(f *testing.F) {
	p := P1()
	s := NewDeterministic(p, 9002)
	pk, _, err := s.GenerateKeys()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pk.Bytes())
	f.Add(make([]byte, 833))
	f.Fuzz(func(t *testing.T, data []byte) {
		parsed, err := ParsePublicKey(p, data)
		if err != nil {
			return
		}
		if !bytes.Equal(parsed.Bytes(), data) {
			t.Fatalf("accepted public key does not round-trip")
		}
	})
}

// FuzzParseAny drives the self-describing parsers: header truncation,
// unknown params IDs, kind confusion and trailing bytes must all surface
// as errors, and anything accepted must round-trip bit-identically
// through MarshalBinary. Every input also goes to the stream readers over
// a bytes.Reader, differentially: a reader accepts exactly when the byte
// parser accepts the prefix it consumed, what it returns re-marshals to
// that prefix, and it consumes the whole of any blob the parser accepts.
func FuzzParseAny(f *testing.F) {
	s1 := NewDeterministic(P1(), 9004)
	s2 := NewDeterministic(P2(), 9005)
	s3 := NewDeterministic(B1(), 9008) // RNS: multi-row residue bodies
	var badTags [][]byte
	for _, s := range []*Scheme{s1, s2, s3} {
		pk, sk, err := s.GenerateKeys()
		if err != nil {
			f.Fatal(err)
		}
		ct, err := s.Encrypt(pk, make([]byte, s.Params().MessageSize()))
		if err != nil {
			f.Fatal(err)
		}
		for _, obj := range []interface {
			MarshalBinary() ([]byte, error)
		}{pk, sk, ct} {
			blob, err := obj.MarshalBinary()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(blob)
			f.Add(blob[:4])           // header truncation
			f.Add(append(blob, 0xAA)) // trailing byte
			// Cross-set ID confusion: the same body under another set's
			// ID must fail the body-length check, never mis-decode.
			crossID := append([]byte(nil), blob...)
			crossID[4], crossID[5] = 0, byte(wireIDP1)
			if s == s1 {
				crossID[5] = byte(wireIDB1)
			}
			f.Add(crossID)
		}
		blob, _, err := s.Encapsulate(pk)
		if err != nil {
			f.Fatal(err)
		}
		wire, err := blob.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
		badTag := append([]byte(nil), wire...)
		badTag[wireHeaderSize] ^= 0xFF // embedded legacy tag disagrees with the header
		badTags = append(badTags, badTag)
	}
	unknown := []byte{'R', 'L', 2, 3, 0xBE, 0xEF} // unknown params ID
	f.Add(unknown)
	f.Add([]byte{})
	for _, b := range badTags {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if pk, err := ParseAnyPublicKey(data); err == nil {
			re, err := pk.MarshalBinary()
			if err != nil || !bytes.Equal(re, data) {
				t.Fatalf("accepted public key does not round-trip (err=%v)", err)
			}
		}
		if sk, err := ParseAnyPrivateKey(data); err == nil {
			re, err := sk.MarshalBinary()
			if err != nil || !bytes.Equal(re, data) {
				t.Fatalf("accepted private key does not round-trip (err=%v)", err)
			}
		}
		if ct, err := ParseAnyCiphertext(data); err == nil {
			re, err := ct.MarshalBinary()
			if err != nil || !bytes.Equal(re, data) {
				t.Fatalf("accepted ciphertext does not round-trip (err=%v)", err)
			}
		}
		if _, ek, err := ParseAnyEncapsulatedKey(data); err == nil {
			re, err := ek.MarshalBinary()
			if err != nil || !bytes.Equal(re, data) {
				t.Fatalf("accepted encapsulated key does not round-trip (err=%v)", err)
			}
		}
		for kind, parse := range map[byte]func([]byte) error{
			wireKindPublicKey:  func(b []byte) error { _, err := ParseAnyPublicKey(b); return err },
			wireKindPrivateKey: func(b []byte) error { _, err := ParseAnyPrivateKey(b); return err },
			wireKindCiphertext: func(b []byte) error { _, err := ParseAnyCiphertext(b); return err },
			wireKindEncapsulatedKey: func(b []byte) error {
				_, _, err := ParseAnyEncapsulatedKey(b)
				return err
			},
		} {
			whole := parse(data)
			for name, read := range streamReaders(P1(), kind) {
				rd := bytes.NewReader(data)
				obj, err := read(rd)
				prefix := data[:len(data)-rd.Len()]
				if whole == nil && (err != nil || len(prefix) != len(data)) {
					t.Fatalf("%s read %d of %d bytes of a blob the parser accepts (err=%v)", name, len(prefix), len(data), err)
				}
				if err != nil {
					continue
				}
				if err := parse(prefix); err != nil {
					t.Fatalf("%s accepted a %d-byte prefix the parser rejects: %v", name, len(prefix), err)
				}
				if re, err := obj.MarshalBinary(); err != nil || !bytes.Equal(re, prefix) {
					t.Fatalf("%s result does not re-marshal to the prefix it read (err=%v)", name, err)
				}
			}
		}
	})
}

// FuzzEvalWire drives the aggregate-ciphertext wire surface: truncation,
// kind confusion against every existing kind, addend-count overflow and
// cross-set destinations must all surface as errors (never panics), and any
// accepted blob must round-trip bit-identically with its addend count
// intact and within budget.
func FuzzEvalWire(f *testing.F) {
	a1 := NewDeterministic(A1(), 9006)
	p1 := NewDeterministic(P1(), 9007)
	b1 := NewDeterministic(B1(), 9009) // RNS: 8-byte addend counts actually in budget
	pinned := NewCiphertext(A1())
	for _, s := range []*Scheme{a1, p1, b1} {
		p := s.Params()
		pk, sk, err := s.GenerateKeys()
		if err != nil {
			f.Fatal(err)
		}
		cts := make([]*Ciphertext, 2)
		for i := range cts {
			if cts[i], err = s.Encrypt(pk, make([]byte, p.MessageSize())); err != nil {
				f.Fatal(err)
			}
		}
		agg := NewCiphertext(p)
		if err := s.AggregateInto(agg, cts); err != nil {
			f.Fatal(err)
		}
		blob, err := Aggregate{agg}.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[:wireHeaderSize+3]) // sub-header truncation
		f.Add(append(blob, 0x55))      // trailing byte
		overflow := append([]byte(nil), blob...)
		overflow[wireHeaderSize] = 0xFF // addend count far past any budget
		f.Add(overflow)
		ctBlob, err := cts[0].MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(ctBlob) // kind confusion: plain ciphertext into aggregate parsers
		confused := append([]byte(nil), blob...)
		confused[3] = KindEncapsulatedKey // kind confusion the other way
		f.Add(confused)
		crossID := append([]byte(nil), blob...)
		crossID[4], crossID[5] = 0, byte(wireIDB1) // cross-set ID: body length mismatch
		if s == b1 {
			crossID[5] = byte(wireIDA1)
		}
		f.Add(crossID)
		skBlob, err := sk.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(skBlob)
	}
	f.Add([]byte{'R', 'L', 2, KindAggregate, 0xBE, 0xEF}) // unknown params ID
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if ct, err := ParseAnyAggregate(data); err == nil {
			if ct.Addends() > uint64(ct.Params().MaxAddends()) {
				t.Fatalf("accepted aggregate with %d addends over budget %d", ct.Addends(), ct.Params().MaxAddends())
			}
			re, err := Aggregate{ct}.MarshalBinary()
			if err != nil || !bytes.Equal(re, data) {
				t.Fatalf("accepted aggregate does not round-trip (err=%v)", err)
			}
		}
		// The pinned-destination parsers must enforce the A1 set against
		// arbitrary headers (cross-set blobs surface ErrParamsMismatch, not
		// corruption) and never touch memory outside the buffers.
		_ = ParseAggregateInto(pinned, data)
		_ = ParseCiphertextInto(pinned, data)
	})
}

func FuzzDecapsulate(f *testing.F) {
	p := P1()
	s := NewDeterministic(p, 9003)
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		f.Fatal(err)
	}
	blob, _, err := s.Encapsulate(pk)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(blob))
	f.Add(make([]byte, p.EncapsulationSize()))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic; errors are the expected outcome for garbage.
		_, _ = s.Decapsulate(sk, EncapsulatedKey(data))
	})
}

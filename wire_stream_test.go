package ringlwe

import (
	"bytes"
	"encoding"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"

	"ringlwe/internal/core"
)

// streamParams lists every shipped parameter set: P1 (13-bit rows), P2
// and A1 (14-bit rows) and B1 (three 29-bit residue rows).
func streamParams() []*Params { return []*Params{P1(), P2(), A1(), B1()} }

// streamFixtures returns a key pair, ciphertext and encapsulation blob
// under p from a deterministic scheme.
func streamFixtures(t *testing.T, p *Params, seed uint64) (*PublicKey, *PrivateKey, *Ciphertext, EncapsulatedKey) {
	t.Helper()
	s := NewDeterministic(p, seed)
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, p.MessageSize())
	for i := range msg {
		msg[i] = byte(i * 37)
	}
	ct, err := s.Encrypt(pk, msg)
	if err != nil {
		t.Fatal(err)
	}
	ek, _, err := s.Encapsulate(pk)
	if err != nil {
		t.Fatal(err)
	}
	return pk, sk, ct, ek
}

// TestStreamMatchesMarshalBinary pins the streaming writers to the exact
// bytes of the buffered MarshalBinary encodings: the two paths must stay
// bit-identical for every object and every shipped parameter set.
func TestStreamMatchesMarshalBinary(t *testing.T) {
	for _, p := range streamParams() {
		pk, sk, ct, ek := streamFixtures(t, p, 7101)
		for _, obj := range []struct {
			name string
			wt   io.WriterTo
			mb   interface{ MarshalBinary() ([]byte, error) }
		}{
			{"public key", pk, pk},
			{"private key", sk, sk},
			{"ciphertext", ct, ct},
			{"encapsulated key", ek, ek},
		} {
			want, err := obj.mb.MarshalBinary()
			if err != nil {
				t.Fatalf("%s/%s: MarshalBinary: %v", p.Name(), obj.name, err)
			}
			var buf bytes.Buffer
			n, err := obj.wt.WriteTo(&buf)
			if err != nil {
				t.Fatalf("%s/%s: WriteTo: %v", p.Name(), obj.name, err)
			}
			if n != int64(buf.Len()) {
				t.Errorf("%s/%s: WriteTo reported %d bytes, wrote %d", p.Name(), obj.name, n, buf.Len())
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s/%s: streamed bytes differ from MarshalBinary", p.Name(), obj.name)
			}
		}
	}
}

func TestStreamRoundTrip(t *testing.T) {
	for _, p := range streamParams() {
		pk, sk, ct, ek := streamFixtures(t, p, 7101)

		var buf bytes.Buffer
		if _, err := pk.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		gotPK, err := ReadAnyPublicKeyFrom(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if gotPK.Params().Name() != p.Name() {
			t.Errorf("%s: public key params came back as %s", p.Name(), gotPK.Params().Name())
		}

		buf.Reset()
		if _, err := sk.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		gotSK, err := ReadAnyPrivateKeyFrom(&buf)
		if err != nil {
			t.Fatal(err)
		}

		buf.Reset()
		if _, err := ct.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		gotCT, err := ReadAnyCiphertextFrom(&buf)
		if err != nil {
			t.Fatal(err)
		}

		// The recovered key opens the recovered ciphertext: full functional
		// round trip, not just byte equality.
		s := New(p)
		msg, err := s.Decrypt(gotSK, gotCT)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.Decrypt(sk, ct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(msg, want) {
			t.Errorf("%s: streamed key/ciphertext decrypt differently", p.Name())
		}
		_ = gotPK

		buf.Reset()
		if _, err := ek.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		gotP, gotEK, err := ReadAnyEncapsulatedKeyFrom(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if gotP.Name() != p.Name() {
			t.Errorf("%s: encapsulation params came back as %s", p.Name(), gotP.Name())
		}
		if !bytes.Equal(gotEK, ek) {
			t.Errorf("%s: encapsulation body changed in transit", p.Name())
		}
	}
}

// TestStreamReadFromReuse pins that a preallocated Ciphertext destination
// and a grown EncapsulatedKey are reused across ReadFrom calls.
func TestStreamReadFromReuse(t *testing.T) {
	p := P1()
	_, _, ct, ek := streamFixtures(t, p, 7101)
	blob, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dst := NewCiphertext(p)
	c1 := &dst.inner.C1[0]
	if _, err := dst.ReadFrom(bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	if &dst.inner.C1[0] != c1 {
		t.Error("Ciphertext.ReadFrom reallocated matching buffers")
	}

	ekBlob, err := ek.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var dstEK EncapsulatedKey
	if _, err := dstEK.ReadFrom(bytes.NewReader(ekBlob)); err != nil {
		t.Fatal(err)
	}
	first := &dstEK[0]
	if _, err := dstEK.ReadFrom(bytes.NewReader(ekBlob)); err != nil {
		t.Fatal(err)
	}
	if &dstEK[0] != first {
		t.Error("EncapsulatedKey.ReadFrom reallocated despite sufficient capacity")
	}
}

func TestStreamErrors(t *testing.T) {
	p := P1()
	pk, _, ct, ek := streamFixtures(t, p, 7101)

	blob, err := pk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every boundary: inside the header, at the header
	// boundary, inside the body.
	for _, cut := range []int{0, 3, wireHeaderSize, wireHeaderSize + 1, len(blob) - 1} {
		if _, err := ReadAnyPublicKeyFrom(bytes.NewReader(blob[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Kind confusion: a ciphertext stream is not a public key.
	ctBlob, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAnyPublicKeyFrom(bytes.NewReader(ctBlob)); err == nil {
		t.Error("ciphertext stream accepted as a public key")
	}
	// Unknown params ID.
	bad := append([]byte(nil), blob...)
	bad[4], bad[5] = 0xBE, 0xEF
	if _, err := ReadAnyPublicKeyFrom(bytes.NewReader(bad)); !errors.Is(err, ErrUnknownParams) {
		t.Errorf("unknown params ID: got %v, want ErrUnknownParams", err)
	}
	// Corrupted magic.
	bad = append([]byte(nil), blob...)
	bad[0] = 'X'
	if _, err := ReadAnyPublicKeyFrom(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Encapsulation with a mismatched embedded legacy tag.
	ekBlob, err := ek.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bad = append([]byte(nil), ekBlob...)
	bad[wireHeaderSize] ^= 0xFF
	if _, _, err := ReadAnyEncapsulatedKeyFrom(bytes.NewReader(bad)); err == nil {
		t.Error("encapsulation with mismatched embedded tag accepted")
	}
	// Out-of-range coefficient in the streamed body must be rejected.
	bad = append([]byte(nil), blob...)
	for i := wireHeaderSize; i < wireHeaderSize+4; i++ {
		bad[i] = 0xFF
	}
	if _, err := ReadAnyPublicKeyFrom(bytes.NewReader(bad)); err == nil {
		t.Error("out-of-range streamed coefficient accepted")
	}
}

// TestStreamZeroAllocWrite pins the streaming writers at zero allocations
// per WriteTo in steady state: each appends its blob to a pooled buffer,
// and the EncapsulatedKey method value passed to the shared writer does
// not escape to the heap.
func TestStreamZeroAllocWrite(t *testing.T) {
	for _, p := range streamParams() {
		pk, sk, ct, ek := streamFixtures(t, p, 7101)
		for _, obj := range []struct {
			name string
			wt   io.WriterTo
		}{
			{"PublicKey", pk},
			{"PrivateKey", sk},
			{"Ciphertext", ct},
			{"EncapsulatedKey", ek},
		} {
			if allocs := testing.AllocsPerRun(200, func() {
				if _, err := obj.wt.WriteTo(io.Discard); err != nil {
					t.Fatal(err)
				}
			}); allocs > 0 {
				t.Errorf("%s/%s: WriteTo allocates %.1f/op, want 0 (no intermediate blob)",
					p.Name(), obj.name, allocs)
			}
		}
	}
}

// TestStreamZeroAllocRead pins the reusing read paths: a preallocated
// ciphertext destination and a grown encapsulation buffer read with zero
// allocations per op.
func TestStreamZeroAllocRead(t *testing.T) {
	for _, p := range streamParams() {
		_, _, ct, ek := streamFixtures(t, p, 7101)
		ctBlob, err := ct.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		dst := NewCiphertext(p)
		rd := bytes.NewReader(ctBlob)
		if allocs := testing.AllocsPerRun(200, func() {
			rd.Reset(ctBlob)
			if _, err := dst.ReadFrom(rd); err != nil {
				t.Fatal(err)
			}
		}); allocs > 0 {
			t.Errorf("%s: Ciphertext.ReadFrom into a matching destination allocates %.1f/op, want 0", p.Name(), allocs)
		}

		ekBlob, err := ek.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var dstEK EncapsulatedKey
		if _, err := dstEK.ReadFrom(bytes.NewReader(ekBlob)); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			rd.Reset(ekBlob)
			if _, err := dstEK.ReadFrom(rd); err != nil {
				t.Fatal(err)
			}
		}); allocs > 0 {
			t.Errorf("%s: EncapsulatedKey.ReadFrom with capacity allocates %.1f/op, want 0", p.Name(), allocs)
		}
	}
}

// countingWriter counts the Write calls that reach w.
type countingWriter struct {
	w     io.Writer
	calls int
}

func (c *countingWriter) Write(b []byte) (int, error) {
	c.calls++
	return c.w.Write(b)
}

// callCountingReader counts the Read calls that reach r.
type callCountingReader struct {
	r     io.Reader
	calls int
}

func (c *callCountingReader) Read(b []byte) (int, error) {
	c.calls++
	return c.r.Read(b)
}

// streamReader reads one wire object and returns it as a marshalable
// object.
type streamReader = func(io.Reader) (encoding.BinaryMarshaler, error)

// streamReaders lists every reader of a wire kind under p, each returning
// what it read as a marshalable object.
func streamReaders(p *Params, kind byte) map[string]streamReader {
	switch kind {
	case wireKindPublicKey:
		return map[string]streamReader{
			"PublicKey.ReadFrom": func(r io.Reader) (encoding.BinaryMarshaler, error) {
				pk := new(PublicKey)
				_, err := pk.ReadFrom(r)
				return pk, err
			},
			"ReadAnyPublicKeyFrom": func(r io.Reader) (encoding.BinaryMarshaler, error) {
				return ReadAnyPublicKeyFrom(r)
			},
		}
	case wireKindPrivateKey:
		return map[string]streamReader{
			"PrivateKey.ReadFrom": func(r io.Reader) (encoding.BinaryMarshaler, error) {
				sk := new(PrivateKey)
				_, err := sk.ReadFrom(r)
				return sk, err
			},
			"ReadAnyPrivateKeyFrom": func(r io.Reader) (encoding.BinaryMarshaler, error) {
				return ReadAnyPrivateKeyFrom(r)
			},
		}
	case wireKindCiphertext:
		return map[string]streamReader{
			"Ciphertext.ReadFrom": func(r io.Reader) (encoding.BinaryMarshaler, error) {
				ct := new(Ciphertext)
				_, err := ct.ReadFrom(r)
				return ct, err
			},
			"Ciphertext.ReadFrom/reuse": func(r io.Reader) (encoding.BinaryMarshaler, error) {
				ct := NewCiphertext(p)
				_, err := ct.ReadFrom(r)
				return ct, err
			},
			"ReadAnyCiphertextFrom": func(r io.Reader) (encoding.BinaryMarshaler, error) {
				return ReadAnyCiphertextFrom(r)
			},
		}
	}
	return map[string]streamReader{
		"EncapsulatedKey.ReadFrom": func(r io.Reader) (encoding.BinaryMarshaler, error) {
			var ek EncapsulatedKey
			_, err := ek.ReadFrom(r)
			return ek, err
		},
		"ReadAnyEncapsulatedKeyFrom": func(r io.Reader) (encoding.BinaryMarshaler, error) {
			_, ek, err := ReadAnyEncapsulatedKeyFrom(r)
			return ek, err
		},
	}
}

// streamObject is one wire object of a fixture, with its kind and blob.
type streamObject struct {
	name string
	kind byte
	wt   io.WriterTo
	blob []byte
}

// streamObjects returns the four wire objects of the fixture of p and
// seed with their kinds and blobs.
func streamObjects(t *testing.T, p *Params, seed uint64) []streamObject {
	t.Helper()
	pk, sk, ct, ek := streamFixtures(t, p, seed)
	objs := []streamObject{
		{"public key", wireKindPublicKey, pk, nil},
		{"private key", wireKindPrivateKey, sk, nil},
		{"ciphertext", wireKindCiphertext, ct, nil},
		{"encapsulated key", wireKindEncapsulatedKey, ek, nil},
	}
	for i := range objs {
		blob, err := objs[i].wt.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			t.Fatalf("%s: MarshalBinary: %v", objs[i].name, err)
		}
		objs[i].blob = blob
	}
	return objs
}

// TestStreamOneWriteTwoReads pins the syscall shape of the streaming
// paths: every WriteTo hands its whole blob to w in exactly one Write,
// and every reader makes at most two Read calls on a bytes.Reader (the
// header, then the body it prescribes), on every shipped set and for all
// four objects. On a socket that is one write and two reads per flight.
func TestStreamOneWriteTwoReads(t *testing.T) {
	for _, p := range streamParams() {
		for _, obj := range streamObjects(t, p, 7101) {
			var buf bytes.Buffer
			cw := &countingWriter{w: &buf}
			n, err := obj.wt.WriteTo(cw)
			if err != nil || n != int64(len(obj.blob)) || cw.calls != 1 {
				t.Errorf("%s/%s: WriteTo made %d Write calls (n=%d, err=%v), want 1 of %d bytes",
					p.Name(), obj.name, cw.calls, n, err, len(obj.blob))
			}
			for name, read := range streamReaders(p, obj.kind) {
				cr := &callCountingReader{r: bytes.NewReader(obj.blob)}
				if _, err := read(cr); err != nil {
					t.Fatalf("%s/%s: %s: %v", p.Name(), obj.name, name, err)
				}
				if cr.calls > 2 {
					t.Errorf("%s/%s: %s made %d Read calls, want at most 2", p.Name(), obj.name, name, cr.calls)
				}
			}
		}
	}
}

// TestStreamReadNamesOffender checks that the public readers reject a
// pk, sk or ct body holding an out-of-range coefficient with the same
// error as UnmarshalBinary, naming the offending coefficient.
func TestStreamReadNamesOffender(t *testing.T) {
	for _, p := range streamParams() {
		pk, sk, ct, _ := streamFixtures(t, p, 7101)
		n, moduli := p.inner.N, p.inner.Basis.Moduli
		row, coef := len(moduli)-1, n-1
		v := moduli[row]
		offender := fmt.Sprintf("residue row %d coefficient %d out of range: %d ≥ q%d", row, coef, v, row+1)
		spoil := func(poly []uint32) []uint32 {
			poly = slices.Clone(poly)
			poly[row*n+coef] = v
			return poly
		}
		badPK := &PublicKey{params: p, inner: &core.PublicKey{Params: p.inner, A: pk.inner.A, P: spoil(pk.inner.P)}}
		badSK := &PrivateKey{params: p, inner: &core.PrivateKey{Params: p.inner, R2: spoil(sk.inner.R2)}}
		badCT := &Ciphertext{params: p, inner: &core.Ciphertext{Params: p.inner, C1: ct.inner.C1, C2: spoil(ct.inner.C2)}}
		for _, obj := range []struct {
			name   string
			bad    interface{ MarshalBinary() ([]byte, error) }
			fresh  func() encoding.BinaryUnmarshaler
			reader io.ReaderFrom
		}{
			{"public key", badPK, func() encoding.BinaryUnmarshaler { return new(PublicKey) }, new(PublicKey)},
			{"private key", badSK, func() encoding.BinaryUnmarshaler { return new(PrivateKey) }, new(PrivateKey)},
			{"ciphertext", badCT, func() encoding.BinaryUnmarshaler { return new(Ciphertext) }, NewCiphertext(p)},
		} {
			blob, err := obj.bad.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			want := obj.fresh().UnmarshalBinary(blob)
			if want == nil || !strings.HasSuffix(want.Error(), offender) {
				t.Fatalf("%s/%s: UnmarshalBinary returned %v, want an error naming %q", p.Name(), obj.name, want, offender)
			}
			n, err := obj.reader.ReadFrom(bytes.NewReader(blob))
			if err == nil || err.Error() != want.Error() {
				t.Errorf("%s/%s: ReadFrom returned %v, want %q", p.Name(), obj.name, err, want)
			}
			if n != int64(len(blob)) {
				t.Errorf("%s/%s: ReadFrom reported %d bytes, want %d", p.Name(), obj.name, n, len(blob))
			}
		}
	}
}

// TestStreamNoPoolAliasing checks that nothing a reader returns aliases
// the pooled blob buffer: objects read first keep their bytes while the
// same goroutine and then several others read and write other blobs
// through the pool. Under -race a shared buffer also shows as a data race
// between those goroutines and the checks of the first objects.
func TestStreamNoPoolAliasing(t *testing.T) {
	for _, p := range []*Params{P1(), B1()} {
		type read struct {
			name string
			obj  encoding.BinaryMarshaler
			want []byte
		}
		var first []read
		for _, obj := range streamObjects(t, p, 7101) {
			for name, rd := range streamReaders(p, obj.kind) {
				got, err := rd(bytes.NewReader(obj.blob))
				if err != nil {
					t.Fatalf("%s/%s: %s: %v", p.Name(), obj.name, name, err)
				}
				first = append(first, read{obj.name + "/" + name, got, obj.blob})
			}
		}
		others := streamObjects(t, p, 7102)
		churn := func() error {
			for _, obj := range others {
				if _, err := obj.wt.WriteTo(io.Discard); err != nil {
					return err
				}
				for _, rd := range streamReaders(p, obj.kind) {
					if _, err := rd(bytes.NewReader(obj.blob)); err != nil {
						return err
					}
				}
			}
			return nil
		}
		check := func() {
			t.Helper()
			for _, r := range first {
				if got, err := r.obj.MarshalBinary(); err != nil || !bytes.Equal(got, r.want) {
					t.Fatalf("%s/%s: object changed after later stream I/O (err=%v)", p.Name(), r.name, err)
				}
			}
		}
		if err := churn(); err != nil {
			t.Fatal(err)
		}
		check()
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 8 {
					if err := churn(); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		check()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		check()
	}
}

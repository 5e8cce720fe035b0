package main

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"net"
	"time"

	"ringlwe"
	"ringlwe/internal/core"
	"ringlwe/internal/ntt"
	"ringlwe/internal/protocol"
	"ringlwe/internal/rng"
	"ringlwe/internal/sampler"
)

// The layer probes time calls into each layer's public functions
// directly, on the backends the default-profile scheme names, so a
// layer's cost can be read apart from the traffic around it. Every probe
// input comes from the seed.

const (
	// probeBatch is how long one timed batch of calls runs; probeRounds
	// batches are timed per function and the median per-call time kept.
	probeBatch  = time.Millisecond
	probeRounds = 21
	// kemProbePairs is how many P1 encapsulate/decapsulate pairs the
	// decapsulation-failure and sampler-counter figures are taken over.
	kemProbePairs = 4096
	// memHandshakes is how many in-memory handshakes of each kind are
	// timed.
	memHandshakes = 200
)

// perCall returns the median time of one call of fn in microseconds. fn
// receives the call's index, so it can walk an input pool.
func perCall(fn func(i int)) float64 {
	fn(0)
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		if time.Since(t0) >= probeBatch || n >= 1<<20 {
			break
		}
		n *= 2
	}
	per := make([]float64, probeRounds)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(r*n + i)
		}
		per[r] = float64(time.Since(t0).Nanoseconds()) / float64(n) / 1e3
	}
	return median(per)
}

// errKeeper keeps the first error of many calls made inside timed loops.
type errKeeper struct{ err error }

func (k *errKeeper) keep(err error) {
	if err != nil && k.err == nil {
		k.err = err
	}
}

// randomPoly returns a flat residue polynomial of len(moduli) rows of n
// coefficients, row i reduced mod moduli[i].
func randomPoly(rnd *rand.Rand, n int, moduli []uint32) ntt.Poly {
	p := make(ntt.Poly, n*len(moduli))
	for i := range p {
		p[i] = rnd.Uint32N(moduli[i/n])
	}
	return p
}

func randomBytes(rnd *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rnd.Uint32())
	}
	return b
}

// layerProbes times every layer function the ledger names.
func layerProbes(seed uint64) (map[string]float64, error) {
	m := map[string]float64{}
	rnd := rand.New(rand.NewPCG(seed, 0x6c61796572))
	for _, probe := range []func(map[string]float64, uint64, *rand.Rand) error{probeP1, probeB1, probeMem} {
		if err := probe(m, seed, rnd); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func probeP1(m map[string]float64, seed uint64, rnd *rand.Rand) error {
	p := ringlwe.P1()
	s := ringlwe.New(p)
	pk, sk, err := ringlwe.NewDeterministic(p, seed).GenerateKeys()
	if err != nil {
		return err
	}
	ws := s.NewWorkspace()
	msg := randomBytes(rnd, p.MessageSize())
	ct := ringlwe.NewCiphertext(p)
	if err := ws.EncryptInto(ct, pk, msg); err != nil {
		return err
	}
	ctBlob, err := ct.MarshalBinary()
	if err != nil {
		return err
	}
	pkBlob, err := pk.MarshalBinary()
	if err != nil {
		return err
	}
	plain := make([]byte, p.MessageSize())
	scratch := ringlwe.NewCiphertext(p)
	var k errKeeper
	m["core.encrypt_us.p1"] = perCall(func(int) { k.keep(ws.EncryptInto(scratch, pk, msg)) })
	m["core.decrypt_us.p1"] = perCall(func(int) { k.keep(ws.DecryptInto(plain, sk, ct)) })
	m["ringlwe.parse_ct_us.p1"] = perCall(func(int) { k.keep(ringlwe.ParseCiphertextInto(scratch, ctBlob)) })
	m["ringlwe.read_pk_us.p1"] = perCall(func(int) {
		_, err := ringlwe.ReadAnyPublicKeyFrom(bytes.NewReader(pkBlob))
		k.keep(err)
	})
	if k.err != nil {
		return k.err
	}

	// Decapsulation failures and sampler counters over a fixed number of
	// pairs, on a scheme nothing else draws from.
	samples0, lut10, _, _ := s.SamplerStats()
	tagFails := 0
	for i := 0; i < kemProbePairs; i++ {
		blob, sent, err := ws.Encapsulate(pk)
		if err != nil {
			return err
		}
		got, err := ws.Decapsulate(sk, blob)
		switch {
		case errors.Is(err, ringlwe.ErrDecapsulation):
			tagFails++
		case err != nil:
			return err
		case got != sent:
			return errors.New("probe: decapsulated key differs from the encapsulated one")
		}
	}
	samples, lut1, _, _ := s.SamplerStats()
	m["ringlwe.decap_fail_frac"] = ratio(float64(tagFails), kemProbePairs)
	m["sampler.samples_per_encap"] = ratio(float64(samples-samples0), kemProbePairs)
	m["sampler.lut1_hit_frac"] = ratio(float64(lut1-lut10), float64(samples-samples0))

	cp := core.P1()
	eng, err := ntt.NewEngine(s.Engine(), cp.Tables)
	if err != nil {
		return err
	}
	mod := []uint32{cp.Q}
	src := [3]ntt.Poly{randomPoly(rnd, cp.N, mod), randomPoly(rnd, cp.N, mod), randomPoly(rnd, cp.N, mod)}
	a, b, c := make(ntt.Poly, cp.N), make(ntt.Poly, cp.N), make(ntt.Poly, cp.N)
	// Transforms run in place, so each call starts from a fresh copy of
	// its input; a copy is about 1% of a transform.
	m["ntt.forward_us.p1"] = perCall(func(int) { copy(a, src[0]); eng.Forward(a) })
	m["ntt.forward_three_us.p1"] = perCall(func(int) {
		copy(a, src[0])
		copy(b, src[1])
		copy(c, src[2])
		eng.ForwardThree(a, b, c)
	})
	m["ntt.inverse_us.p1"] = perCall(func(int) { copy(a, src[0]); eng.Inverse(a) })
	m["ntt.pointwise_mul_us.p1"] = perCall(func(int) { eng.PointwiseMul(c, src[0], src[1]) })

	smp, err := sampler.New(s.Sampler(), cp.SamplerConfig(), rng.NewXorshift128(seed))
	if err != nil {
		return err
	}
	m["sampler.poly_us.p1"] = perCall(func(int) { smp.SamplePolyInto(a, cp.Q) })
	return nil
}

func probeB1(m map[string]float64, seed uint64, rnd *rand.Rand) error {
	p := ringlwe.B1()
	s := ringlwe.New(p)
	pk, sk, err := ringlwe.NewDeterministic(p, seed).GenerateKeys()
	if err != nil {
		return err
	}
	ws := s.NewWorkspace()
	pool := make([][]byte, aggPool)
	acc := ringlwe.NewCiphertext(p)
	ct := ringlwe.NewCiphertext(p)
	for i := range pool {
		if err := ws.EncryptInto(ct, pk, randomBytes(rnd, p.MessageSize())); err != nil {
			return err
		}
		if pool[i], err = ct.MarshalBinary(); err != nil {
			return err
		}
		if err := ws.EvalAddInto(acc, acc, ct); err != nil {
			return err
		}
	}
	aggBlob, err := ringlwe.Aggregate{Ciphertext: acc}.MarshalBinary()
	if err != nil {
		return err
	}
	scratch, sum := ringlwe.NewCiphertext(p), ringlwe.NewCiphertext(p)
	plain := make([]byte, p.MessageSize())
	var k errKeeper
	m["ringlwe.parse_ct_us.b1"] = perCall(func(i int) { k.keep(ringlwe.ParseCiphertextInto(scratch, pool[i%len(pool)])) })
	m["ringlwe.eval_add_us.b1"] = perCall(func(int) { k.keep(ws.EvalAddInto(sum, scratch, ct)) })
	m["ringlwe.marshal_agg_us.b1"] = perCall(func(int) {
		_, err := ringlwe.Aggregate{Ciphertext: acc}.MarshalBinary()
		k.keep(err)
	})
	m["ringlwe.parse_agg_us.b1"] = perCall(func(int) {
		_, err := ringlwe.ParseAnyAggregate(aggBlob)
		k.keep(err)
	})
	m["core.decrypt_us.b1"] = perCall(func(int) { k.keep(ws.DecryptInto(plain, sk, acc)) })
	if k.err != nil {
		return k.err
	}

	basis := core.B1().Basis
	engs := make([]ntt.Engine, basis.K)
	for i, t := range basis.Tables {
		if engs[i], err = ntt.NewEngine(s.Engine(), t); err != nil {
			return err
		}
	}
	run, err := ntt.NewRunner(engs)
	if err != nil {
		return err
	}
	x, y := randomPoly(rnd, basis.N, basis.Moduli), randomPoly(rnd, basis.N, basis.Moduli)
	z := make(ntt.Poly, len(x))
	m["ntt.add_all_us.b1"] = perCall(func(int) { run.AddAll(z, x, y) })
	m["ntt.inverse_all_us.b1"] = perCall(func(int) { copy(z, x); run.InverseAll(z) })
	m["ntt.mul_all_us.b1"] = perCall(func(int) { run.MulAll(z, x, y) })

	var bits byte
	m["rns.decode_us.b1"] = perCall(func(int) {
		for j := 0; j < basis.N; j++ {
			bits ^= basis.DecodeCoeff(basis.ReconstructCoeff(x, j))
		}
	})
	sink = bits
	return nil
}

// sink keeps probe results live so no timed call is optimised away.
var sink byte

// probeMem replays the channel's operations over an in-memory pipe,
// through Server.Handshake, so the socket's share of the loopback figures
// is their difference.
func probeMem(m map[string]float64, seed uint64, rnd *rand.Rand) error {
	p := ringlwe.P1()
	srv := protocol.NewServer()
	pk, sk, err := ringlwe.NewDeterministic(p, seed).GenerateKeys()
	if err != nil {
		return err
	}
	if err := srv.AddTenant(ringlwe.New(p), pk, sk); err != nil {
		return err
	}
	defer srv.Close()
	scheme := ringlwe.New(p)

	// connect runs one in-memory handshake; the server side echoes until
	// the client closes its end, and wait returns once it has.
	connect := func(hs func(net.Conn) (*protocol.Channel, error)) (ch *protocol.Channel, d time.Duration, wait func(), err error) {
		cc, sc := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer sc.Close()
			if sch, err := srv.Handshake(sc); err == nil {
				echo(sch)
			}
		}()
		t0 := time.Now()
		ch, err = hs(cc)
		d = time.Since(t0)
		wait = func() {
			cc.Close()
			<-done
		}
		if err != nil {
			wait()
		}
		return ch, d, wait, err
	}

	full := make([]float64, memHandshakes)
	resumed := make([]float64, memHandshakes)
	var ses *protocol.Session
	for i := 0; i < memHandshakes; i++ {
		ch, d, wait, err := connect(func(c net.Conn) (*protocol.Channel, error) {
			return protocol.Client(c, scheme, protocol.WithSessionTicket())
		})
		if err != nil {
			return err
		}
		wait()
		full[i] = float64(d.Nanoseconds()) / 1e3
		ses = ch.Session()
		ch, d, wait, err = connect(func(c net.Conn) (*protocol.Channel, error) {
			return protocol.ClientResume(c, ses)
		})
		if err != nil {
			return err
		}
		wait()
		if !ch.Resumed() {
			return errors.New("probe: in-memory resumption fell back to a full handshake")
		}
		resumed[i] = float64(d.Nanoseconds()) / 1e3
	}
	m["protocol.mem.hs_full_us"] = median(full)
	m["protocol.mem.hs_resumed_us"] = median(resumed)

	ch, _, wait, err := connect(func(c net.Conn) (*protocol.Channel, error) { return protocol.Client(c, scheme) })
	if err != nil {
		return err
	}
	defer wait()
	// The SUBMIT record of the agg workload: op ‖ stream ID ‖ B1 ciphertext.
	b1Blob, err := ringlwe.NewCiphertext(ringlwe.B1()).MarshalBinary()
	if err != nil {
		return err
	}
	submitLen := 1 + 8 + len(b1Blob)
	for _, rc := range []struct {
		name string
		size int
	}{{"64B", 64}, {"16KiB", 16 << 10}, {"22KB", submitLen}} {
		msg := randomBytes(rnd, rc.size)
		var k errKeeper
		m["protocol.mem.record_rtt_us."+rc.name] = perCall(func(int) {
			if err := ch.Send(msg); err != nil {
				k.keep(err)
				return
			}
			got, err := ch.Recv()
			k.keep(err)
			if err == nil {
				k.keep(checkEcho(got, msg))
			}
		})
		if k.err != nil {
			return k.err
		}
	}
	return nil
}

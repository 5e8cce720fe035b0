package ringlwe_test

import (
	"bytes"
	"errors"
	"fmt"

	"ringlwe"
)

// Encrypt and decrypt one message under the medium-term parameter set.
// (Deterministic seeds keep the example's output stable; production code
// uses ringlwe.New.)
func Example() {
	params := ringlwe.P1()
	scheme := ringlwe.NewDeterministic(params, 1)

	pub, priv, err := scheme.GenerateKeys()
	if err != nil {
		panic(err)
	}

	msg := make([]byte, params.MessageSize())
	copy(msg, "post-quantum greetings")

	ct, err := scheme.Encrypt(pub, msg)
	if err != nil {
		panic(err)
	}
	plain, err := priv.Decrypt(ct)
	if err != nil {
		panic(err)
	}
	fmt.Println(bytes.Equal(plain, msg))
	// Output: true
}

// Transport a session key with failure detection: the KEM's confirmation
// tag converts the scheme's intrinsic decryption-failure rate into a
// detectable, retryable error.
func ExampleScheme_Encapsulate() {
	scheme := ringlwe.NewDeterministic(ringlwe.P1(), 2)
	pub, priv, err := scheme.GenerateKeys()
	if err != nil {
		panic(err)
	}

	for {
		blob, senderKey, err := scheme.Encapsulate(pub)
		if err != nil {
			panic(err)
		}
		receiverKey, err := scheme.Decapsulate(priv, blob)
		if errors.Is(err, ringlwe.ErrDecapsulation) {
			continue // intrinsic failure: encapsulate again
		}
		if err != nil {
			panic(err)
		}
		fmt.Println(senderKey == receiverKey)
		break
	}
	// Output: true
}

// Serve concurrent traffic with per-goroutine workspaces: the Scheme and
// keys are shared, each goroutine forks a workspace once and then
// encrypts with zero steady-state allocation.
func ExampleScheme_NewWorkspace() {
	params := ringlwe.P1()
	scheme := ringlwe.NewDeterministic(params, 4)
	pub, priv, err := scheme.GenerateKeys()
	if err != nil {
		panic(err)
	}

	ws := scheme.NewWorkspace() // one per goroutine
	msg := make([]byte, params.MessageSize())
	copy(msg, "reused buffers, no garbage")

	ct := ringlwe.NewCiphertext(params) // reusable destination
	out := make([]byte, params.MessageSize())
	if err := ws.EncryptInto(ct, pub, msg); err != nil {
		panic(err)
	}
	if err := ws.DecryptInto(out, priv, ct); err != nil {
		panic(err)
	}
	fmt.Println(bytes.Equal(out, msg))
	// Output: true
}

// Encrypt many messages at once: EncryptBatch fans the work out over a
// bounded pool of pooled workspaces and is safe on a shared Scheme.
func ExampleScheme_EncryptBatch() {
	params := ringlwe.P1()
	scheme := ringlwe.NewDeterministic(params, 5)
	pub, priv, err := scheme.GenerateKeys()
	if err != nil {
		panic(err)
	}

	msgs := make([][]byte, 8)
	for i := range msgs {
		msgs[i] = make([]byte, params.MessageSize())
		msgs[i][0] = byte(i)
	}
	cts, err := scheme.EncryptBatch(pub, msgs)
	if err != nil {
		panic(err)
	}
	plain, err := scheme.DecryptBatch(priv, cts)
	if err != nil {
		panic(err)
	}
	// Work distribution across the pool is scheduling-dependent, and the
	// LPR scheme decrypts wrongly with small probability (≈0.8% per
	// message at P1) — so this example shows the shape of the API and
	// leaves content checks to the KEM, which detects and retries
	// failures.
	fmt.Println(len(cts), len(plain))
	// Output: 8 8
}

// Depend on the narrowest capability interface: code written against
// Encrypter works with a Scheme, a Workspace, or any future implementation
// without change.
func ExampleEncrypter() {
	params := ringlwe.P1()
	scheme := ringlwe.NewDeterministic(params, 6)
	pub, priv, err := scheme.GenerateKeys()
	if err != nil {
		panic(err)
	}

	seal := func(e ringlwe.Encrypter, msg []byte) *ringlwe.Ciphertext {
		ct, err := e.Encrypt(pub, msg)
		if err != nil {
			panic(err)
		}
		return ct
	}
	msg := make([]byte, params.MessageSize())
	copy(msg, "capability interfaces")

	viaScheme := seal(scheme, msg)                   // one-shot path
	viaWorkspace := seal(scheme.NewWorkspace(), msg) // per-goroutine path

	a, _ := priv.Decrypt(viaScheme)
	b, _ := priv.Decrypt(viaWorkspace)
	fmt.Println(bytes.Equal(a, msg), bytes.Equal(b, msg))
	// Output: true true
}

// The KEM interface is the recommended transport for session keys: both
// the Scheme and a Workspace satisfy it.
func ExampleKEM() {
	scheme := ringlwe.NewDeterministic(ringlwe.P1(), 7)
	pub, priv, err := scheme.GenerateKeys()
	if err != nil {
		panic(err)
	}

	var kem ringlwe.KEM = scheme
	for {
		blob, senderKey, err := kem.Encapsulate(pub)
		if err != nil {
			panic(err)
		}
		receiverKey, err := kem.Decapsulate(priv, blob)
		if errors.Is(err, ringlwe.ErrDecapsulation) {
			continue // intrinsic failure: encapsulate again
		}
		if err != nil {
			panic(err)
		}
		fmt.Println(senderKey == receiverKey)
		break
	}
	// Output: true
}

// Additively homomorphic evaluation: ciphertexts encrypted under one key
// combine in the NTT domain without decryption, and the sum decrypts to
// the XOR of the plaintexts. The A1 parameter set is tuned for this (a
// 26-addend noise budget); folding past MaxAddends is refused with
// ErrNoiseBudget instead of silently corrupting the aggregate.
func ExampleEvaluator() {
	params := ringlwe.A1()
	scheme := ringlwe.NewDeterministic(params, 11)
	pub, priv, err := scheme.GenerateKeys()
	if err != nil {
		panic(err)
	}

	msgs := [][]byte{
		make([]byte, params.MessageSize()),
		make([]byte, params.MessageSize()),
		make([]byte, params.MessageSize()),
	}
	copy(msgs[0], "sensor A")
	copy(msgs[1], "sensor B")
	copy(msgs[2], "sensor C")
	cts := make([]*ringlwe.Ciphertext, len(msgs))
	for i, m := range msgs {
		if cts[i], err = scheme.Encrypt(pub, m); err != nil {
			panic(err)
		}
	}

	// Any Evaluator folds ciphertexts: the Scheme (concurrency-safe) or a
	// Workspace (per-goroutine). AggregateInto is the many-at-once form.
	var ev ringlwe.Evaluator = scheme
	sum := ringlwe.NewCiphertext(params)
	if err := ev.AggregateInto(sum, cts); err != nil {
		panic(err)
	}

	got, err := priv.Decrypt(sum)
	if err != nil {
		panic(err)
	}
	want := make([]byte, params.MessageSize())
	for _, m := range msgs {
		for i := range want {
			want[i] ^= m[i]
		}
	}
	fmt.Println(sum.Addends(), bytes.Equal(got, want))
	// Output: 3 true
}

// Self-describing blobs carry their parameter set: the receiver needs no
// out-of-band agreement on P1 vs P2.
func ExampleParseAnyCiphertext() {
	params := ringlwe.P2()
	scheme := ringlwe.NewDeterministic(params, 8)
	pub, _, err := scheme.GenerateKeys()
	if err != nil {
		panic(err)
	}
	ct, err := scheme.Encrypt(pub, make([]byte, params.MessageSize()))
	if err != nil {
		panic(err)
	}

	blob, err := ct.MarshalBinary() // versioned header + packed body
	if err != nil {
		panic(err)
	}
	back, err := ringlwe.ParseAnyCiphertext(blob) // no params argument
	if err != nil {
		panic(err)
	}
	fmt.Println(back.Params().Name(), bytes.Equal(back.Bytes(), ct.Bytes()))
	// Output: P2 true
}

// Profiles bundle backend choices; the resolved configuration is
// inspectable and round-trips through WithProfile.
func ExampleScheme_Profile() {
	scheme := ringlwe.New(ringlwe.P1(), ringlwe.ConstantTime())
	p := scheme.Profile()
	fmt.Println(p.Name(), p.Engine, p.Sampler)
	// Output: constant-time vector cdt
}

// Keys and ciphertexts serialize to fixed-size blobs.
func ExamplePublicKey_Bytes() {
	params := ringlwe.P2()
	scheme := ringlwe.NewDeterministic(params, 3)
	pub, _, err := scheme.GenerateKeys()
	if err != nil {
		panic(err)
	}
	data := pub.Bytes()
	back, err := ringlwe.ParsePublicKey(params, data)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(data), back.Params().Name())
	// Output: 1793 P2
}

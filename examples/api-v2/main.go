// Command api-v2 tours the three layers of the redesigned public API:
// capability interfaces, composable security profiles, and the
// self-describing wire format.
//
//	go run ./examples/api-v2
package main

import (
	"bytes"
	"errors"
	"fmt"
	"log"

	"ringlwe"
)

// transportKey is written against the KEM capability interface: it does
// not care whether the implementation is a Scheme, a Workspace, or a
// test double.
func transportKey(kem ringlwe.KEM, pub *ringlwe.PublicKey, priv *ringlwe.PrivateKey) [ringlwe.SharedKeySize]byte {
	for {
		blob, senderKey, err := kem.Encapsulate(pub)
		if err != nil {
			log.Fatal(err)
		}
		receiverKey, err := kem.Decapsulate(priv, blob)
		if errors.Is(err, ringlwe.ErrDecapsulation) {
			continue // intrinsic LPR failure: retry with a fresh encapsulation
		}
		if err != nil {
			log.Fatal(err)
		}
		if senderKey != receiverKey {
			log.Fatal("keys disagree")
		}
		return receiverKey
	}
}

func main() {
	params := ringlwe.P1()

	// Layer 2: profiles. One scheme per security/performance point; all
	// three interoperate — same cryptosystem, different instruction traces.
	def := ringlwe.New(params) // vector + wide-ky (Fast() is an alias)
	reference := ringlwe.New(params, ringlwe.Reference())
	constTime := ringlwe.New(params, ringlwe.ConstantTime())
	for _, s := range []*ringlwe.Scheme{def, reference, constTime} {
		p := s.Profile()
		fmt.Printf("profile %-13s engine=%-8s sampler=%s\n", p.Name(), p.Engine, p.Sampler)
	}

	// Layer 1: capability interfaces. Keys from the reference profile,
	// session keys transported through whichever implementation.
	pub, priv, err := reference.GenerateKeys()
	if err != nil {
		log.Fatal(err)
	}
	_ = transportKey(def, pub, priv)                // Scheme as KEM
	_ = transportKey(def.NewWorkspace(), pub, priv) // Workspace as KEM
	fmt.Println("session keys transported via Scheme and Workspace KEMs")

	// Cross-profile interop: the constant-time scheme encrypts to the
	// reference keys, and both schemes decrypt it alike (every profile
	// shares the one branch-free message codec).
	msg := make([]byte, params.MessageSize())
	copy(msg, "profiles interoperate")
	ct, err := constTime.Encrypt(pub, msg)
	if err != nil {
		log.Fatal(err)
	}
	a, err := constTime.Decrypt(priv, ct) // vector kernels
	if err != nil {
		log.Fatal(err)
	}
	b, err := reference.Decrypt(priv, ct) // barrett kernels
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("constant-time and reference decrypts agree:", bytes.Equal(a, b))

	// Layer 3: the self-describing wire format. The blob carries its
	// parameter set; the receiving side never asks "P1 or P2?".
	blob, err := ct.MarshalBinary()
	if err != nil {
		log.Fatal(err)
	}
	back, err := ringlwe.ParseAnyCiphertext(blob)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ciphertext wire blob: %d bytes, self-identifies as %s\n",
		len(blob), back.Params().Name())
}

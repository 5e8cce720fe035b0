package m4

import (
	"testing"

	"ringlwe/internal/core"
	"ringlwe/internal/rng"
)

// The unpacked pipeline must produce the same ciphertext (given the same
// randomness) while costing measurably more — the end-to-end value of the
// paper's NTT optimizations.
func TestSchemeHalfwordAblation(t *testing.T) {
	params := core.P1()

	mOpt := New()
	opt, err := NewScheme(mOpt, params, rng.NewXorshift128(404))
	if err != nil {
		t.Fatal(err)
	}
	pkO, _ := opt.KeyGen()
	msg := make([]byte, params.MessageBytes())
	for i := range msg {
		msg[i] = byte(i)
	}
	mOpt.Reset()
	ctO := opt.Encrypt(pkO, msg)
	optEnc := mOpt.Cycles

	mHW := New()
	hw, err := NewScheme(mHW, params, rng.NewXorshift128(404))
	if err != nil {
		t.Fatal(err)
	}
	pkH, _ := hw.KeyGen()
	mHW.Reset()
	ctH := hw.EncryptHalfword(pkH, msg)
	hwEnc := mHW.Cycles

	// Identical randomness → identical ciphertexts.
	for i := 0; i < params.N; i++ {
		if ctO.C1[i] != ctH.C1[i] || ctO.C2[i] != ctH.C2[i] {
			t.Fatalf("optimized and halfword ciphertexts differ at %d", i)
		}
	}

	// Cost ordering and a meaningful margin (packing + fusion should save
	// at least 10% end to end at encryption).
	if hwEnc <= optEnc {
		t.Fatalf("halfword pipeline not more expensive: enc %d vs %d", hwEnc, optEnc)
	}
	saving := 1 - float64(optEnc)/float64(hwEnc)
	t.Logf("end-to-end encryption saving from packing+fusion: %.1f%% (%d → %d cycles)",
		100*saving, hwEnc, optEnc)
	if saving < 0.10 {
		t.Errorf("scheme-level saving only %.1f%%", 100*saving)
	}
}

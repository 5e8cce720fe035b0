package main

import (
	"errors"
	"sync/atomic"
	"time"

	"ringlwe"
)

// seal: the paper's own operation, P1 key encapsulation in the library
// with no network. Each client owns a Workspace of the default-profile
// scheme and loops Encapsulate → Decapsulate against one seeded key pair.

const (
	sealPair = iota // the operation: one Encapsulate plus one Decapsulate
	sealEncap
	sealDecap
)

var sealKeys = []string{"pair", "encap", "decap"}

// sealWarm is the number of pairs each workspace runs during set-up.
const sealWarm = 256

type sealEnv struct {
	pk *ringlwe.PublicKey
	sk *ringlwe.PrivateKey
	ws []*ringlwe.Workspace

	// tagFailures counts in-window decapsulations that failed the
	// confirmation tag: the scheme's intrinsic decryption failure, which
	// the KEM reports correctly and a caller answers by encapsulating
	// again, so it is a measured outcome rather than a failed operation.
	tagFailures atomic.Uint64
}

func setupSeal(c config) (env, error) {
	p := ringlwe.P1()
	pk, sk, err := ringlwe.NewDeterministic(p, c.seed).GenerateKeys()
	if err != nil {
		return nil, err
	}
	s := ringlwe.New(p)
	e := &sealEnv{pk: pk, sk: sk}
	for i := 0; i < c.clients; i++ {
		e.ws = append(e.ws, s.NewWorkspace())
	}
	discard := newRecorder(len(sealKeys), 0, 1)
	for _, ws := range e.ws {
		for j := 0; j < sealWarm; j++ {
			e.pair(ws, discard)
		}
		if discard.firstErr != nil {
			return nil, discard.firstErr
		}
	}
	return e, nil
}

func (e *sealEnv) worker(i int, rec *recorder, stop *atomic.Bool) error {
	ws := e.ws[i]
	for !stop.Load() {
		e.pair(ws, rec)
	}
	return nil
}

// pair runs and checks one encapsulate/decapsulate pair.
func (e *sealEnv) pair(ws *ringlwe.Workspace, rec *recorder) {
	l := rec.lane
	l.begin("kem.pair")
	t0 := time.Now()
	l.begin("encap")
	blob, sent, err := ws.Encapsulate(e.pk)
	l.end()
	t1 := time.Now()
	var got [ringlwe.SharedKeySize]byte
	if err == nil {
		l.begin("decap")
		got, err = ws.Decapsulate(e.sk, blob)
		l.end()
	}
	t2 := time.Now()
	l.end()
	switch {
	case errors.Is(err, ringlwe.ErrDecapsulation):
		if rec.window(t2) >= 0 {
			e.tagFailures.Add(1)
		}
		err = nil
	case err == nil && got != sent:
		err = errors.New("seal: decapsulated key differs from the encapsulated one")
	}
	rec.latency(sealEncap, t0, t1)
	rec.latency(sealDecap, t1, t2)
	rec.latency(sealPair, t0, t2)
	rec.op(t2, err)
}

func (e *sealEnv) finish(*recorder) error { return nil }
func (e *sealEnv) close() error           { return nil }
func (e *sealEnv) workers() int           { return len(e.ws) }

func sealDetail(e env, rec *recorder) map[string]float64 {
	se := e.(*sealEnv)
	return map[string]float64{
		"kem_ops_s":         rec.opsPerSec(),
		"encap_p50_us":      rec.windowQuantile(sealEncap, 0.5),
		"decap_p50_us":      rec.windowQuantile(sealDecap, 0.5),
		"kem_tag_fail_frac": ratio(float64(se.tagFailures.Load()), float64(rec.attempted)),
	}
}

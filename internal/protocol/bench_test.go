package protocol

import (
	"fmt"
	"net"
	"testing"

	"ringlwe"
)

// Handshake and rekey benchmarks over an in-memory duplex pipe: the
// numbers are CPU cost (KEM work plus framing), not network latency. CI
// archives them via rlwe-benchjson, whose derived ops/s metric turns
// ns/op into handshakes per second.

func benchmarkHandshake(b *testing.B, params *ringlwe.Params, dial func(net.Conn) (*Channel, error)) {
	srv := newTestServer(b, params)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cConn, sConn := net.Pipe()
		sDone := make(chan error, 1)
		go func() {
			_, err := srv.Handshake(sConn)
			sDone <- err
		}()
		if _, err := dial(cConn); err != nil {
			b.Fatal(err)
		}
		if err := <-sDone; err != nil {
			b.Fatal(err)
		}
		cConn.Close()
		sConn.Close()
	}
}

func BenchmarkHandshakeV2P1(b *testing.B) {
	scheme := ringlwe.NewDeterministic(ringlwe.P1(), 9001)
	benchmarkHandshake(b, ringlwe.P1(), func(c net.Conn) (*Channel, error) {
		return Client(c, scheme)
	})
}

func BenchmarkHandshakeV2P2(b *testing.B) {
	scheme := ringlwe.NewDeterministic(ringlwe.P2(), 9002)
	benchmarkHandshake(b, ringlwe.P2(), func(c net.Conn) (*Channel, error) {
		return Client(c, scheme)
	})
}

// BenchmarkHandshakeResumeP1 measures a ticket resumption round trip —
// the headline of the resumption work: no KEM flight at all, one AES-GCM
// ticket decrypt plus the key schedule on each side. Compare against
// BenchmarkHandshakeV2P1 for the full-vs-resumed ratio.
func BenchmarkHandshakeResumeP1(b *testing.B) {
	srv := newTestServer(b, ringlwe.P1())
	scheme := ringlwe.NewDeterministic(ringlwe.P1(), 9005)

	// Seed session from one full ticketed handshake.
	cConn, sConn := net.Pipe()
	sDone := make(chan error, 1)
	go func() {
		_, err := srv.Handshake(sConn)
		sDone <- err
	}()
	full, err := Client(cConn, scheme, WithSessionTicket())
	if err != nil {
		b.Fatal(err)
	}
	if err := <-sDone; err != nil {
		b.Fatal(err)
	}
	cConn.Close()
	sConn.Close()
	ses := full.Session()
	if !ses.Valid() {
		b.Fatal("no session issued")
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cConn, sConn := net.Pipe()
		go func() {
			ch, err := srv.Handshake(sConn)
			if err == nil && !ch.resumed {
				err = errDroppedToFull
			}
			sDone <- err
		}()
		ch, err := ClientResume(cConn, ses)
		if err != nil {
			b.Fatal(err)
		}
		if !ch.Resumed() {
			b.Fatal("resumption fell back to a full handshake")
		}
		if err := <-sDone; err != nil {
			b.Fatal(err)
		}
		ses = ch.Session() // tickets are single-use; chain the reissue
		cConn.Close()
		sConn.Close()
	}
}

var errDroppedToFull = fmt.Errorf("server completed a full handshake, not a resumption")

// BenchmarkRecordRoundtripP1 measures the record layer's hot path with
// the metrics accounting attached: one data record sealed by the server
// (counters live, untraced) and opened by the client per op, over an
// in-memory pipe, at three record sizes — 64 B, 1 KiB and the 22 KB
// aggregation SUBMIT. Guards the always-on observability cost on the
// seal/open path, and (through B/op) that no allocation scales with the
// record.
func BenchmarkRecordRoundtripP1(b *testing.B) {
	srv := newTestServer(b, ringlwe.P1())
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	defer sConn.Close()
	var server *Channel
	sDone := make(chan error, 1)
	go func() {
		ch, err := srv.Handshake(sConn)
		server = ch
		sDone <- err
	}()
	client, err := Client(cConn, ringlwe.NewDeterministic(ringlwe.P1(), 9006))
	if err != nil {
		b.Fatal(err)
	}
	if err := <-sDone; err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		size int
	}{{"64B", 64}, {"1KiB", 1 << 10}, {"22KB", 22 << 10}} {
		b.Run(bc.name, func(b *testing.B) {
			msg := make([]byte, bc.size)
			errc := make(chan error, 1)
			go func() {
				for i := 0; i < b.N; i++ {
					if err := server.Send(msg); err != nil {
						errc <- err
						return
					}
				}
				errc <- nil
			}()
			b.SetBytes(int64(len(msg)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Recv(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := <-errc; err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkRekey measures one full in-band epoch roll: the client's
// encapsulation, the rekey/ack round trip, the server's decapsulation and
// both key-schedule switches (plus one one-byte data record to force the
// roll).
func BenchmarkRekey(b *testing.B) {
	srv := newTestServer(b, ringlwe.P1())
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	defer sConn.Close()
	var server *Channel
	sDone := make(chan error, 1)
	go func() {
		ch, err := srv.Handshake(sConn)
		server = ch
		sDone <- err
	}()
	client, err := Client(cConn, ringlwe.NewDeterministic(ringlwe.P1(), 9004), WithRekeyAfter(1))
	if err != nil {
		b.Fatal(err)
	}
	if err := <-sDone; err != nil {
		b.Fatal(err)
	}
	go func() {
		for {
			if _, err := server.Recv(); err != nil {
				return
			}
		}
	}()
	msg := []byte{0x42}
	if err := client.Send(msg); err != nil { // arm the rekey counter
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// records ≥ 1 ⇒ every Send rekeys first.
		if err := client.Send(msg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if client.Rekeys < b.N {
		b.Fatalf("only %d rekeys over %d sends", client.Rekeys, b.N)
	}
}

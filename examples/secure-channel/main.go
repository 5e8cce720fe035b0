// Secure channel v2 over TCP: a post-quantum handshake in the style of
// the key-exchange work the paper's Table III compares against ([9],
// ring-LWE key exchange for TLS), upgraded to the negotiated multi-tenant
// protocol.
//
// One server holds a long-term ring-LWE key pair per parameter set (the
// post-quantum analogue of a TLS server certificate per cipher suite) and
// serves them all on one port. Two clients hit it concurrently:
//
//   - a P1 client using the v2 negotiated handshake (the server's first
//     flight is its self-describing public-key blob; the client checks
//     the parameter set in its six-byte header),
//   - a P2 client doing the same against the same port.
//
// The P1 client also rekeys mid-session: after WithRekeyAfter(2) records
// it transparently encapsulates a fresh session key inside the channel
// and both sides roll to new epoch keys.
//
//	go run ./examples/secure-channel
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"ringlwe"
	"ringlwe/internal/protocol"
)

func main() {
	// Server: one tenant per parameter set, each with its own scheme
	// (randomness from per-workspace AES-CTR keystreams) and long-term key
	// pair.
	srv := protocol.NewServer(protocol.WithHandler(func(ch *protocol.Channel) {
		for {
			msg, err := ch.Recv()
			if err != nil {
				return
			}
			if err := ch.Send(append([]byte("ack "), msg...)); err != nil {
				return
			}
		}
	}))
	for _, p := range []*ringlwe.Params{ringlwe.P1(), ringlwe.P2()} {
		if err := srv.AddParams(p); err != nil {
			log.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	fmt.Printf("server: one port (%s), two parameter sets, protocol v2\n", ln.Addr())

	var wg sync.WaitGroup
	run := func(label string, dial func(net.Conn) (*protocol.Channel, error), lines []string) {
		defer wg.Done()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			log.Fatal(err)
		}
		defer conn.Close()
		start := time.Now()
		ch, err := dial(conn)
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		fmt.Printf("%s: handshake done in %v (negotiated %s, protocol v2)\n",
			label, time.Since(start).Round(time.Microsecond), ch.Params().Name())
		for _, line := range lines {
			if err := ch.Send([]byte(line)); err != nil {
				log.Fatalf("%s: %v", label, err)
			}
			reply, err := ch.Recv()
			if err != nil {
				log.Fatalf("%s: %v", label, err)
			}
			fmt.Printf("%s: sent %-24q got %q\n", label, line, reply)
		}
		if ch.Rekeys > 0 {
			fmt.Printf("%s: session rekeyed %d time(s) in-band\n", label, ch.Rekeys)
		}
	}

	wg.Add(2)
	go run("client[P1,v2]", func(c net.Conn) (*protocol.Channel, error) {
		return protocol.Client(c, ringlwe.New(ringlwe.P1()), protocol.WithRekeyAfter(2))
	}, []string{"temperature 21.4C", "pressure 1013 hPa", "door sensor: closed", "humidity 40%"})
	go run("client[P2,v2]", func(c net.Conn) (*protocol.Channel, error) {
		return protocol.Client(c, ringlwe.New(ringlwe.P2()))
	}, []string{"firmware hash f00d...", "uptime 312d"})
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("server stats:", srv.Stats())
	fmt.Println("session closed cleanly")
}

//go:build !(linux || darwin || dragonfly || freebsd || netbsd || openbsd)

package protocol

import (
	"errors"
	"net"
)

// listenReuseport fails: this platform cannot shard accepts via
// SO_REUSEPORT, so Listen falls back to one listener whose accept loop
// tags connections with shards round-robin.
func listenReuseport(network, addr string, n int) ([]net.Listener, error) {
	return nil, errors.New("protocol: SO_REUSEPORT unsupported on this platform")
}

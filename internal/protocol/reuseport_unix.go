//go:build linux || darwin || dragonfly || freebsd || netbsd || openbsd

package protocol

import (
	"context"
	"net"
	"syscall"
)

// listenReuseport binds n listeners to the same address with
// SO_REUSEPORT. The first listen resolves the address (so ":0" works),
// and the rest bind the resolved port. On any failure every listener
// opened so far is closed and the caller falls back to a single listener.
func listenReuseport(network, addr string, n int) ([]net.Listener, error) {
	lc := net.ListenConfig{
		Control: func(network, address string, c syscall.RawConn) error {
			var serr error
			if err := c.Control(func(fd uintptr) {
				serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
			}); err != nil {
				return err
			}
			return serr
		},
	}
	lns := make([]net.Listener, 0, n)
	first, err := lc.Listen(context.Background(), network, addr)
	if err != nil {
		return nil, err
	}
	lns = append(lns, first)
	resolved := first.Addr().String()
	for len(lns) < n {
		ln, err := lc.Listen(context.Background(), network, resolved)
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
	}
	return lns, nil
}

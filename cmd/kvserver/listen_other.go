//go:build !linux

package main

import "net"

// netListener and listenTCP listen through net off Linux; see listen_linux.go.
type netListener struct{ net.Listener }

func (l netListener) Accept() (conn, error) { return l.Listener.Accept() }

func listenTCP(addr string) (listener, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	return netListener{ln}, ln.Addr().String(), nil
}

package main

import (
	"errors"
	"fmt"
	"net/netip"
	"os"
	"strings"
	"syscall"
)

// tcpListener is a syscall-made TCP listener, closed by its File's Close.
// The poller drives it and its connections as *os.File, deadlines included.
type tcpListener struct {
	*os.File
	raw syscall.RawConn
}

// listenTCP listens on addr, host:port with the host an IP literal,
// "localhost" (127.0.0.1, the one address net.Listen picks for it) or ""
// ("::" dual-stack, or 0.0.0.0 without IPv6), and returns the bound
// address in net's host:port form.
func listenTCP(addr string) (listener, string, error) {
	literal := addr
	if rest, ok := strings.CutPrefix(addr, "localhost:"); ok {
		literal = "127.0.0.1:" + rest
	} else if strings.HasPrefix(addr, ":") {
		literal = "[::]" + addr
	}
	ap, err := netip.ParseAddrPort(literal)
	if err != nil {
		return nil, "", fmt.Errorf("listen tcp %s: %v: want host:port, the host an IP literal, localhost or empty (kvserver resolves no names), the port 0-65535", addr, err)
	}
	fd, bound, err := listenSocket(ap)
	if ap.Addr() == netip.IPv6Unspecified() && errors.Is(err, syscall.EAFNOSUPPORT) {
		fd, bound, err = listenSocket(netip.AddrPortFrom(netip.IPv4Unspecified(), ap.Port()))
	}
	if err != nil {
		return nil, "", fmt.Errorf("listen tcp %s: %w", addr, err)
	}
	f := os.NewFile(uintptr(fd), "tcp-listener")
	raw, _ := f.SyscallConn() // fails only on a closed file
	return &tcpListener{f, raw}, bound.String(), nil
}

// listenSocket returns a non-blocking socket listening on ap, with the
// options net sets on a listener (SO_REUSEADDR, and IPV6_V6ONLY off so
// that "::" takes IPv4 too), and the address the kernel bound.
func listenSocket(ap netip.AddrPort) (int, netip.AddrPort, error) {
	family, sa := syscall.AF_INET6, syscall.Sockaddr(&syscall.SockaddrInet6{Port: int(ap.Port()), Addr: ap.Addr().As16()})
	if ap.Addr().Is4() {
		family, sa = syscall.AF_INET, &syscall.SockaddrInet4{Port: int(ap.Port()), Addr: ap.Addr().As4()}
	}
	fd, err := syscall.Socket(family, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return -1, ap, os.NewSyscallError("socket", err)
	}
	err = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1)
	if err == nil && family == syscall.AF_INET6 {
		err = syscall.SetsockoptInt(fd, syscall.IPPROTO_IPV6, syscall.IPV6_V6ONLY, 0)
	}
	if err == nil {
		err = syscall.Bind(fd, sa)
	}
	if err == nil {
		err = syscall.Listen(fd, syscall.SOMAXCONN)
	}
	if err == nil {
		sa, err = syscall.Getsockname(fd) // the kernel's port for port 0
	}
	if err != nil {
		syscall.Close(fd)
		return -1, ap, err
	}
	if sa, ok := sa.(*syscall.SockaddrInet6); ok {
		return fd, netip.AddrPortFrom(ap.Addr(), uint16(sa.Port)), nil
	}
	return fd, netip.AddrPortFrom(ap.Addr(), uint16(sa.(*syscall.SockaddrInet4).Port)), nil
}

// Accept waits for the next connection, retrying an accept that a
// signal interrupted or whose connection was aborted while queued.
func (l *tcpListener) Accept() (conn, error) {
	var nfd int
	var err error
	if rerr := l.raw.Read(func(fd uintptr) bool {
		for {
			nfd, _, err = syscall.Accept4(int(fd), syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC)
			if err != syscall.EINTR && err != syscall.ECONNABORTED {
				return err != syscall.EAGAIN // EAGAIN: wait until readable
			}
		}
	}); rerr != nil {
		return nil, rerr
	}
	if err != nil {
		return nil, os.NewSyscallError("accept4", err)
	}
	// What net (go1.24) sets on an accepted TCP connection: no Nagle
	// delay, keepalive probes after 15 s idle, every 15 s, 9 of them. As
	// in net, a connection that refuses an option is still served.
	syscall.SetsockoptInt(nfd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1)
	syscall.SetsockoptInt(nfd, syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 1)
	syscall.SetsockoptInt(nfd, syscall.IPPROTO_TCP, syscall.TCP_KEEPIDLE, 15)
	syscall.SetsockoptInt(nfd, syscall.IPPROTO_TCP, syscall.TCP_KEEPINTVL, 15)
	syscall.SetsockoptInt(nfd, syscall.IPPROTO_TCP, syscall.TCP_KEEPCNT, 9)
	return os.NewFile(uintptr(nfd), "tcp"), nil
}

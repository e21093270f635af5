package main

import (
	"net"
	"os"
	"slices"
	"strings"
	"syscall"
	"testing"
)

// TestListenTCP: the -addr rule. IP literals, localhost and an empty
// host bind, and the bound address reads as net prints it; a host name,
// a missing port and a port past 65535 are refused with an error that
// names the rule. A connection accepted on each listener carries the
// options net sets on an accepted TCP connection.
func TestListenTCP(t *testing.T) {
	ipv6 := true
	if ln, err := net.Listen("tcp6", "[::1]:0"); err != nil {
		ipv6 = false
	} else {
		ln.Close()
	}
	for _, tc := range []struct {
		addr string
		host []string // the bound host, one of these; nil when refused
		dial string   // the host a client connects to
	}{
		{addr: ":0", host: []string{"::", "0.0.0.0"}, dial: "127.0.0.1"},
		{addr: "127.0.0.1:0", host: []string{"127.0.0.1"}, dial: "127.0.0.1"},
		{addr: "[::1]:0", host: []string{"::1"}, dial: "::1"},
		{addr: "localhost:0", host: []string{"127.0.0.1"}, dial: "127.0.0.1"},
		{addr: "example.invalid:0"},
		{addr: "127.0.0.1"},
		{addr: ":70000"},
	} {
		t.Run(tc.addr, func(t *testing.T) {
			if tc.dial == "::1" && !ipv6 {
				t.Skip("no IPv6 loopback")
			}
			ln, bound, err := listenTCP(tc.addr)
			if tc.host == nil {
				if err == nil {
					ln.Close()
					t.Fatalf("bound %s, want an error", bound)
				}
				const rule = "want host:port, the host an IP literal, localhost or empty (kvserver resolves no names), the port 0-65535"
				if !strings.Contains(err.Error(), rule) {
					t.Fatalf("error %q does not name the rule", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			host, port, err := net.SplitHostPort(bound)
			if err != nil || port == "0" || !slices.Contains(tc.host, host) {
				t.Fatalf("bound %q (%v), want host %q and a port", bound, err, tc.host)
			}
			client, err := net.Dial("tcp", net.JoinHostPort(tc.dial, port))
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			c, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			f, ok := c.(*os.File)
			if !ok {
				t.Fatalf("accepted a %T, want *os.File", c)
			}
			wantSockopts(t, f)
		})
	}
}

// wantSockopts reads back the options net (go1.24) sets on an accepted
// TCP connection: TCP_NODELAY, and keepalive after 15 s idle, every
// 15 s, 9 probes.
func wantSockopts(t *testing.T, f *os.File) {
	t.Helper()
	raw, err := f.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []struct {
		name             string
		level, opt, want int
	}{
		{"TCP_NODELAY", syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1},
		{"SO_KEEPALIVE", syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 1},
		{"TCP_KEEPIDLE", syscall.IPPROTO_TCP, syscall.TCP_KEEPIDLE, 15},
		{"TCP_KEEPINTVL", syscall.IPPROTO_TCP, syscall.TCP_KEEPINTVL, 15},
		{"TCP_KEEPCNT", syscall.IPPROTO_TCP, syscall.TCP_KEEPCNT, 9},
	} {
		var got int
		var gerr error
		if err := raw.Control(func(fd uintptr) {
			got, gerr = syscall.GetsockoptInt(int(fd), o.level, o.opt)
		}); err != nil || gerr != nil {
			t.Fatalf("%s: %v, %v", o.name, err, gerr)
		}
		if got != o.want {
			t.Errorf("%s = %d, want %d", o.name, got, o.want)
		}
	}
}

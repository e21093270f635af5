package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/kvwire"
)

// The server under test is the kvserver binary, run as a child process
// with these flags on every svc_* workload. The maps are sized so that
// no tenant map ever grows (kvserver.map_grows_total must stay 0).
//
// The server gets one processor of its own (slot 1; the load thread has
// slot 0) and GOMAXPROCS=1: on a two-processor host a server that may
// use both shares them with the load generator, and what is measured is
// how the kernel happened to place three busy threads on two processors.
const (
	svcTenants = 3
	svcWorkers = 4 // two load connections, one control connection, one spare

	clientSlot = 0
	serverSlot = 1
)

func serverArgs(spans bool) []string {
	return []string{
		"-addr", "127.0.0.1:0", // the kernel picks a free loopback port
		"-tenants", fmt.Sprint(svcTenants), "-workers", fmt.Sprint(svcWorkers),
		"-shards", "8", "-buckets", "256",
		fmt.Sprintf("-spans=%v", spans),
	}
}

// buildServer compiles cmd/kvserver from the repository at root into
// buildDir and reports how long that took. The one-off build is not
// part of setup_s.
func buildServer(root, buildDir string) (bin string, seconds float64, err error) {
	absOut, err := filepath.Abs(filepath.Join(buildDir, "kvserver"))
	if err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", absOut, "./cmd/kvserver")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/kvserver in %s: %v\n%s", root, err, out)
	}
	return absOut, time.Since(t0).Seconds(), nil
}

// server is one kvserver child process and the burner that keeps its
// processor awake.
type server struct {
	cmd    *exec.Cmd
	burner *burner
	addr   string
	stderr bytes.Buffer
	done   chan struct{} // closed when the process has been waited for
	once   sync.Once
}

// startServer launches bin on the server's processor and waits for its
// "listening on" line. Cancelling ctx (SIGINT, SIGTERM) kills the child.
func startServer(ctx context.Context, bin string, spans bool) (*server, error) {
	s := &server{cmd: exec.CommandContext(ctx, bin, serverArgs(spans)...), done: make(chan struct{})}
	s.cmd.Stderr = &s.stderr
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	// If the bench process dies without running stop (SIGKILL), the
	// kernel takes the child down with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := startOn(serverSlot, s.cmd); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	if s.burner, err = startBurner(serverSlot); err != nil {
		s.cmd.Process.Kill()
		s.cmd.Wait()
		return nil, err
	}
	lines := bufio.NewReader(out)
	first := make(chan string, 1)
	go func() {
		line, _ := lines.ReadString('\n')
		first <- line
		io.Copy(io.Discard, lines) // keep the pipe drained until the child exits
		s.cmd.Wait()
		close(s.done)
	}()
	select {
	case line := <-first:
		_, addr, ok := strings.Cut(strings.TrimSpace(line), "listening on ")
		if !ok {
			s.stop()
			return nil, fmt.Errorf("kvserver did not announce its address: %q; stderr: %s", line, s.stderr.String())
		}
		s.addr = addr
	case <-time.After(10 * time.Second):
		s.stop()
		return nil, errors.New("kvserver did not start listening within 10s")
	}
	return s, nil
}

// stop kills the child and waits until it has ended. Killing is the
// clean way out for a benchmark: nothing of the server's state is
// needed after the final AUDIT.
func (s *server) stop() {
	s.once.Do(func() {
		s.cmd.Process.Kill()
		<-s.done
		s.burner.stop()
	})
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// cpu is the CPU time of all the server's threads, to the nanosecond
// (/proc/<pid>/stat counts in hundredths of a second, a whole round).
// A thread's time is booked when it leaves its processor, so the
// reading is exact when the server is idle, which is when it is taken.
func (s *server) cpu() time.Duration {
	dir := procPath(s.pid(), "task")
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0 // a vanished server shows as failed operations
	}
	var total time.Duration
	for _, t := range tasks {
		raw, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue
		}
		var ns int64
		fmt.Sscan(string(raw), &ns)
		total += time.Duration(ns)
	}
	return total
}

// ioTimeout bounds every blocking exchange with the server, so a
// wedged server turns into a failed operation instead of a hung
// benchmark.
const ioTimeout = 5 * time.Second

// yield gives the processor to any other runnable thread. The load
// thread never sleeps: on a small virtual machine an idle processor
// halts, and how long it takes to wake depends on the hypervisor's
// state, not on the program under test (README.md, "Why the load
// thread polls").
func yield() { syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }

// client is one connection to the server, read without ever blocking:
// poll makes one read attempt, line hands out the complete lines
// received so far. It is owned by one goroutine.
type client struct {
	c     net.Conn
	rc    syscall.RawConn
	in    []byte // received bytes; in[off:] is not yet consumed
	off   int
	reads uint64 // read attempts that returned data
	buf   []byte // outgoing requests
}

func dial(addr string) (*client, error) {
	c, err := net.DialTimeout("tcp", addr, ioTimeout)
	if err != nil {
		return nil, err
	}
	rc, err := c.(*net.TCPConn).SyscallConn()
	if err != nil {
		c.Close()
		return nil, err
	}
	return &client{c: c, rc: rc, in: make([]byte, 0, 1<<16)}, nil
}

func (cl *client) close() {
	if cl != nil {
		cl.c.Close()
	}
}

// send writes buf in one write call.
func (cl *client) send(buf []byte) error {
	_, err := cl.c.Write(buf)
	return err
}

// poll makes one non-blocking read attempt and reports whether bytes
// arrived.
func (cl *client) poll() (bool, error) {
	if cl.off == len(cl.in) {
		cl.in, cl.off = cl.in[:0], 0
	} else if len(cl.in) == cap(cl.in) {
		cl.in = append(cl.in[:0], cl.in[cl.off:]...) // make room: drop what was consumed
		cl.off = 0
		if len(cl.in) == cap(cl.in) {
			return false, errors.New("response line longer than the receive buffer")
		}
	}
	var n int
	var rerr error
	err := cl.rc.Read(func(fd uintptr) bool {
		n, rerr = syscall.Read(int(fd), cl.in[len(cl.in):cap(cl.in)])
		return true // never wait for readiness
	})
	switch {
	case err != nil:
		return false, err
	case n > 0:
		cl.in = cl.in[:len(cl.in)+n]
		cl.reads++
		return true, nil
	case rerr == syscall.EAGAIN || rerr == syscall.EINTR:
		return false, nil
	case rerr != nil:
		return false, rerr
	}
	return false, io.EOF
}

// line returns the next complete response line without its newline,
// nil when none is buffered. The slice is valid until the next poll.
func (cl *client) line() []byte {
	i := bytes.IndexByte(cl.in[cl.off:], '\n')
	if i < 0 {
		return nil
	}
	l := cl.in[cl.off : cl.off+i]
	cl.off += i + 1
	return l
}

// recvLine polls until one line has arrived. Set-up, control verbs and
// verification use it; the load loops poll several connections
// themselves.
func (cl *client) recvLine() ([]byte, error) {
	deadline := time.Now().Add(ioTimeout)
	for {
		if l := cl.line(); l != nil {
			return l, nil
		}
		got, err := cl.poll()
		if err != nil {
			return nil, err
		}
		if !got {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("no response within %v", ioTimeout)
			}
			yield()
		}
	}
}

// recv reads and parses one data-path response.
func (cl *client) recv() (kvwire.Response, error) {
	l, err := cl.recvLine()
	if err != nil {
		return kvwire.Response{}, err
	}
	return kvwire.ParseResponse(string(l), true)
}

// control sends one control verb and returns the raw OK payload.
func (cl *client) control(op kvwire.Op) (string, error) {
	cl.buf = kvwire.Request{Op: op}.Append(cl.buf[:0])
	if err := cl.send(cl.buf); err != nil {
		return "", err
	}
	l, err := cl.recvLine()
	if err != nil {
		return "", err
	}
	resp, err := kvwire.ParseResponse(string(l), false)
	if err != nil {
		return "", err
	}
	if !resp.OK() {
		return "", fmt.Errorf("%v answered %s %s", op, resp.Status, resp.Raw)
	}
	return resp.Raw, nil
}

// audit is the server's conservation totals (the AUDIT verb).
type audit struct {
	mapN, mapSum, queueN uint64
}

func (cl *client) audit() (audit, error) {
	raw, err := cl.control(kvwire.OpAudit)
	if err != nil {
		return audit{}, err
	}
	var a audit
	if _, err := fmt.Sscan(raw, &a.mapN, &a.mapSum, &a.queueN); err != nil {
		return audit{}, fmt.Errorf("AUDIT payload %q: %w", raw, err)
	}
	return a, nil
}

// stats fetches the server's STATS document: the per-stage rows of its
// own request spans and, in the obs block, the same registry the
// METRICS verb renders.
func (cl *client) stats() (kvwire.Doc, error) {
	var doc kvwire.Doc
	raw, err := cl.control(kvwire.OpStats)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal([]byte(raw), &doc); err != nil {
		return doc, fmt.Errorf("STATS payload: %w", err)
	}
	return doc, nil
}

// ledger is what the client's OK responses say the server's AUDIT
// totals must have changed by: only PUT and DEL move the map totals,
// only PUSH and POP the queue total. Sums wrap like the server's.
type ledger struct {
	mapN, queueN int64
	mapSum       uint64
}

// apply books one response. val is the value the request carried (PUT,
// PUSH); removed values come from the response.
func (l *ledger) apply(op kvwire.Op, val uint64, resp kvwire.Response) {
	if !resp.OK() {
		return
	}
	switch op {
	case kvwire.OpPut:
		l.mapN, l.mapSum = l.mapN+1, l.mapSum+val
	case kvwire.OpDel:
		if len(resp.Vals) == 1 {
			l.mapN, l.mapSum = l.mapN-1, l.mapSum-resp.Vals[0]
		}
	case kvwire.OpPush:
		l.queueN++
	case kvwire.OpPop:
		l.queueN--
	}
}

// check compares the change between two AUDITs of one server with the
// ledger of everything acknowledged in between. It is delta-based, so
// it does not matter what the server held before.
func (l ledger) check(before, after audit) error {
	if got := int64(after.mapN - before.mapN); got != l.mapN {
		return fmt.Errorf("audit: map entries changed by %d, acknowledged PUT/DEL say %d", got, l.mapN)
	}
	if got := after.mapSum - before.mapSum; got != l.mapSum {
		return fmt.Errorf("audit: map value sum changed by %d, acknowledged PUT/DEL say %d", got, l.mapSum)
	}
	if got := int64(after.queueN - before.queueN); got != l.queueN {
		return fmt.Errorf("audit: queued elements changed by %d, acknowledged PUSH/POP say %d", got, l.queueN)
	}
	return nil
}

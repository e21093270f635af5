package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// This file is what the benchmark knows about the host it runs on: which
// processors it may use, how to put a thread or a child process on one of
// them, nanosecond CPU clocks, and the burner that keeps the server's
// processor awake.

// maxCPUs is how many processors a run uses: one per load thread, or one
// for the load thread and one for the server.
const maxCPUs = 2

// cpuMask is a sched_setaffinity mask of up to 1024 processors.
type cpuMask [16]uint64

func maskOf(cpu int) cpuMask {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	return m
}

// affinity reads the calling thread's allowed processors.
func affinity() (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, e
	}
	return m, nil
}

// setAffinity restricts the calling thread to m. The goroutine must be
// locked to its thread.
func setAffinity(m cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return e
	}
	return nil
}

// hostCPUs are the processors the run uses: the first maxCPUs the process
// is allowed on. With a single processor everything shares it.
var hostCPUs = func() []int {
	var cpus []int
	if m, err := affinity(); err == nil {
		for cpu := 0; cpu < len(m)*64 && len(cpus) < maxCPUs; cpu++ {
			if m[cpu/64]&(1<<(cpu%64)) != 0 {
				cpus = append(cpus, cpu)
			}
		}
	}
	if len(cpus) == 0 {
		cpus = []int{0}
	}
	return cpus
}()

// cpuOf maps a load thread (or 0: client, 1: server) to its processor.
func cpuOf(i int) int { return hostCPUs[i%len(hostCPUs)] }

// pinned is cleared when the kernel refuses an affinity change; the run
// then goes on unpinned and says so in its record.
var pinned atomic.Bool

func init() { pinned.Store(true) }

// pin locks the calling goroutine to its thread and the thread to the
// processor of slot i, and returns what undoes both. Load threads stay
// where they are put: a thread the kernel migrates takes a cold cache
// along, and two threads it puts on one processor measure the scheduler.
// The undo matters: a goroutine that ends while locked takes its thread
// with it, and a child started from that thread with Pdeathsig dies too.
func pin(i int) (undo func()) {
	runtime.LockOSThread()
	saved, err := affinity()
	hop(i)
	return func() {
		if err == nil {
			setAffinity(saved)
		}
		runtime.UnlockOSThread()
	}
}

// hop moves the calling (locked) thread to the processor of slot i.
func hop(i int) {
	if err := setAffinity(maskOf(cpuOf(i))); err != nil {
		pinned.Store(false)
	}
}

// startOn starts cmd with its first thread on the processor of slot i;
// the threads the child creates later inherit it. A child inherits the
// affinity of the thread that forks it, so the calling thread moves
// there for the fork and back.
func startOn(i int, cmd *exec.Cmd) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	saved, err := affinity()
	if err == nil {
		hop(i)
		defer setAffinity(saved)
	}
	return cmd.Start()
}

// ---------------------------------------------------------------------
// CPU clocks

const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// threadCPU is the CPU time of the calling thread.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }

// selfCPU is the CPU time of the bench process.
func selfCPU() time.Duration { return cpuClock(clockProcessCPU) }

// ---------------------------------------------------------------------
// The burner

// burnFlag turns the process into a burner: `bench -burn`.
const burnFlag = "-burn"

const schedIdle = 5 // SCHED_IDLE

// burn spins for ever at idle priority. A processor with nothing to run
// halts, and how long a halted virtual processor takes to wake is the
// hypervisor's business, bimodal from run to run. The burner keeps the
// server's processor out of that state without taking anything from the
// server: an idle-priority thread is preempted the moment any other
// thread wakes. It ends when its parent does (Pdeathsig) or kills it.
func burn() {
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread()
	var param [1]int32
	syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param)))
	for x := uint64(1); ; x = x*6364136223846793005 + 1442695040888963407 {
		if x == 0 { // never: keeps the loop from being compiled away
			return
		}
	}
}

// burner is a running burner process.
type burner struct {
	cmd *exec.Cmd
}

// startBurner launches a burner on the processor of slot i.
func startBurner(i int) (*burner, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, burnFlag)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := startOn(i, cmd); err != nil {
		return nil, fmt.Errorf("start burner: %w", err)
	}
	return &burner{cmd: cmd}, nil
}

func (b *burner) stop() {
	if b != nil {
		b.cmd.Process.Kill()
		b.cmd.Wait()
	}
}

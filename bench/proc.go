package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// userHz is the unit of the CPU times in /proc/<pid>/stat; the kernel
// reports them in USER_HZ, which Linux fixes at 100 for user space.
const userHz = 100

// procCPU reads utime+stime of process pid (0 = this process) from
// /proc. The comm field may contain spaces, so fields are counted from
// the closing parenthesis.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(procPath(pid, "stat"))
	if err != nil {
		return 0, err
	}
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: unexpected format %q", s)
	}
	// f[0] is field 3 (state), so utime (14) and stime (15) are f[11], f[12].
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad cpu fields %q %q", f[11], f[12])
	}
	return time.Duration(ut+st) * time.Second / userHz, nil
}

// peakRSSMB reads VmHWM, the resident-set high-water mark, of process
// pid (0 = this process) in MiB.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(procPath(pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, fmt.Errorf("proc status: bad VmHWM %q", rest)
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

func procPath(pid int, file string) string {
	if pid == 0 {
		return "/proc/self/" + file
	}
	return "/proc/" + strconv.Itoa(pid) + "/" + file
}

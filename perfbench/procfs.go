package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTick is the unit of utime/stime in /proc/<pid>/stat. USER_HZ is
// 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// ProcSample is what the benchmark reads about the server process at a
// phase boundary.
type ProcSample struct {
	CPU   time.Duration // utime + stime
	HWMkB int64         // peak resident set size (VmHWM)
}

// readProc samples /proc/<pid>/stat and /proc/<pid>/status.
func readProc(pid int) (ProcSample, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ProcSample{}, err
	}
	cpu, err := parseStatCPU(string(stat))
	if err != nil {
		return ProcSample{}, err
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ProcSample{}, err
	}
	hwm, err := parseStatusKB(string(status), "VmHWM")
	if err != nil {
		return ProcSample{}, err
	}
	return ProcSample{CPU: cpu, HWMkB: hwm}, nil
}

// parseStatCPU returns utime+stime from the contents of /proc/<pid>/stat.
// The command name (field 2) is parenthesised and may itself contain
// spaces and parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("procfs: stat has no command field: %q", stat)
	}
	// After ") " come fields 3 (state) onwards; utime and stime are
	// fields 14 and 15, i.e. indexes 11 and 12 here.
	f := strings.Fields(stat[end+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("procfs: stat has %d fields after the command, want >= 13", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: stime: %w", err)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// parseStatusKB returns the value of a "Key:   123 kB" line of
// /proc/<pid>/status.
func parseStatusKB(status, key string) (int64, error) {
	sc := bufio.NewScanner(strings.NewReader(status))
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != key {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("procfs: malformed %s line %q", key, sc.Text())
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("procfs: no %s line in status", key)
}

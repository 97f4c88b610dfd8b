package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"

	"repro/internal/blas"
)

// hostInfo is the host block every recorded run carries: a number without
// the machine it was taken on is not comparable with anything.
type hostInfo struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	KernelISA  string  `json:"kernel_isa"`
	Load1      float64 `json:"load1_at_start"`
	// LoadWarning is set when the 1-minute load average at start exceeds
	// nproc/2: somebody else is using the cores the timings need.
	LoadWarning string `json:"load_warning,omitempty"`
}

// benchProcs is the GOMAXPROCS every measured process runs at: the cores
// the process may run on (one, once pinToOneCPU has run), capped at 4 so
// records from bigger hosts stay comparable.
func benchProcs() int { return min(runtime.NumCPU(), 4) }

// pinToOneCPU confines this process, and every process it starts, to the
// lowest-numbered CPU it may run on: it narrows the affinity of the calling
// thread and executes the program again from that thread, so that the new
// image's threads and children all inherit the mask and runtime.NumCPU reads
// 1. It returns only on failure.
func pinToOneCPU() error {
	var mask [16]uint64 // room for 1,024 CPUs
	size, ptr := unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, ptr); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	first := true
	for i, word := range mask {
		if first && word != 0 {
			mask[i], first = word&-word, false // keep the lowest set bit only
		} else {
			mask[i] = 0
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	runtime.LockOSThread()
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, size, ptr); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	return syscall.Exec(exe, os.Args, os.Environ())
}

func readHost() hostInfo {
	h := hostInfo{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     os.Getenv("BENCH_COMMIT"),
		KernelISA:  blas.KernelISA(),
	}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			h.Load1, _ = strconv.ParseFloat(f[0], 64) // unparsable reads as 0: no warning
		}
	}
	if h.Load1 > float64(h.NProc)/2 {
		h.LoadWarning = fmt.Sprintf("1-min load %.2f exceeds nproc/2 = %.1f: timings may be inflated", h.Load1, float64(h.NProc)/2)
	}
	return h
}

// peakRSSMB returns VmHWM of pid from /proc, in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// resetPeakRSS makes this process's VmHWM start again from its current RSS,
// so that the next reading is the peak of one operation and the run can
// report a median of them, not the one largest excursion. Where the kernel
// refuses, every reading is the peak so far and the median is close to it.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// procCPUSeconds returns the CPU time pid has used so far, user and system,
// from the process's CPU-time clock (clock_getcpuclockid(3) builds the clock
// id from the pid the same way). It counts nanoseconds on the CPU, where
// /proc/<pid>/stat counts 10 ms ticks.
func procCPUSeconds(pid int) (float64, error) {
	const cpuclockSched = 2
	clock := uint32(int32(^pid<<3 | cpuclockSched))
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("CPU-time clock of process %d: %w", pid, errno)
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9, nil
}

// selfCPUSeconds returns this process's user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

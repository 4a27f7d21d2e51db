package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// rng is a splitmix64 generator: seeded, pointer-free and cheap enough
// that drawing a key never shows in a timed loop.
type rng uint64

func newRNG(seed int64, stream uint64) *rng {
	r := rng(uint64(seed)*0x9E3779B97F4A7C15 + stream*0xBF58476D1CE4E5B9 + 1)
	return &r
}

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias is below 2^-40 for the
// sizes used here.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4), which is the one the
// benchmark's acceptance check uses. Fewer than two samples have no spread.
func quartiles(xs []float64) (q25, med, q75 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	m := len(s)
	at := func(i int) float64 {
		// the "exclusive" method: cut point i of 4 sits at i*(m+1)/4, 1-based
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile returns the p-quantile (0..1) of xs by nearest rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// processCPU returns a clock of the CPU time — user and system, every
// thread — that process pid has used, pid 0 being this process. It reads the
// process's CPU-time clock through clock_gettime, which counts nanoseconds;
// getrusage and /proc/<pid>/stat count 10 ms ticks, too coarse for a block of
// a few milliseconds.
func processCPU(pid int) cpuClock {
	const (
		clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
		cpuclockSched       = 2 // CPUCLOCK_SCHED of MAKE_PROCESS_CPUCLOCK
	)
	id := int32(clockProcessCPUTime)
	if pid != 0 {
		id = int32(^pid<<3 | cpuclockSched)
	}
	return func() time.Duration {
		var ts syscall.Timespec
		if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(id), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
			return 0
		}
		return time.Duration(ts.Nano())
	}
}

// keepAwake starts one child per CPU that spins at SCHED_IDLE priority, pinned
// to that CPU, for as long as a workload runs, and returns how many it started
// and the function that ends them. A vCPU of this guest that goes idle halts,
// and the host takes from 20 us to several ms to run it again: with nothing
// kept awake a pipelined burst on wire-mixed ran at 140 kops/s, between 120 and
// 250 from one burst to the next, and at 250 with the spinners; over four runs
// each way its timed metrics ranged 19-23 % without and 2-6 % with, restart's
// 13-21 % and 4-11 %. The spinners run only when nothing else wants the CPU, as
// idle=poll on the kernel command line would. All of them or none: when one
// cannot start (no SCHED_IDLE, CPU not allowed), the run goes on without.
func keepAwake() (int, func()) {
	exe, err := os.Executable()
	if err != nil {
		return 0, func() {}
	}
	var cmds []*exec.Cmd
	stop := func() {
		for _, c := range cmds {
			c.Process.Kill()
			c.Wait()
		}
	}
	for cpu := 0; cpu < runtime.NumCPU(); cpu++ {
		cmd := exec.Command(exe, "-idle-spin", fmt.Sprint(cpu))
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.StdoutPipe()
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			stop()
			return 0, func() {}
		}
		cmds = append(cmds, cmd)
		if line, _ := bufio.NewReader(out).ReadString('\n'); line == "" { // it exited instead
			stop()
			return 0, func() {}
		}
	}
	return len(cmds), stop
}

// idleSpin is the child keepAwake starts: it pins itself to cpu, drops to
// SCHED_IDLE, says so on stdout and spins until it is killed.
func idleSpin(cpu int, stdout, stderr io.Writer) int {
	runtime.LockOSThread()
	var mask [16]uint64
	if cpu < 0 || cpu >= 64*len(mask) {
		return 2
	}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		fmt.Fprintln(stderr, "idle spinner: sched_setaffinity:", errno)
		return 1
	}
	const schedIdle = 5
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		fmt.Fprintln(stderr, "idle spinner: sched_setscheduler:", errno)
		return 1
	}
	fmt.Fprintln(stdout, "spinning")
	for {
	}
}

// procRSSMB is a process's resident set in MB, from /proc/<pid>/status.
func procRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmRSS:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// procStat is the aggregate cpu line of /proc/stat: total and steal ticks.
type procStat struct{ total, steal int64 }

func readProcStat() procStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return procStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var ps procStat
	for i, s := range f[1:] {
		v, _ := strconv.ParseInt(s, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			ps.total += v
		}
		if i == 7 {
			ps.steal = v
		}
	}
	return ps
}

func stealPct(a, b procStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// envBlock records where and how a run was taken.
type envBlock struct {
	NProc           int     `json:"nproc"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	HartdGOMAXPROCS int     `json:"hartd_gomaxprocs"`
	GoVersion       string  `json:"go_version"`
	Kernel          string  `json:"kernel"`
	Commit          string  `json:"commit"`
	Seed            int64   `json:"seed"`
	Records         int     `json:"records"`
	Seconds         float64 `json:"timed_s"`
	BlockMs         float64 `json:"block_ms"`
	IdleSpinners    int     `json:"idle_spinners"`
	StealPct        float64 `json:"steal_pct"`
	WallS           float64 `json:"wall_s"`
}

func readEnv(cfg *config) envBlock {
	e := envBlock{
		NProc:           runtime.NumCPU(),
		HartdGOMAXPROCS: hartdProcs(),
		GoVersion:       runtime.Version(),
		Kernel:          "unknown",
		Commit:          "unknown",
		Seed:            cfg.seed,
		Records:         cfg.records,
		Seconds:         cfg.seconds,
		BlockMs:         cfg.blockMs,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	// A driver's checkout is not a git repository; the commit is then unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// buildHartd compiles cmd/hartd through the benchmark module's replace
// directive, so the daemon measured is the one in this checkout.
func buildHartd(moduleDir, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "github.com/casl-sdsu/hart/cmd/hartd")
	cmd.Dir = moduleDir
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build hartd: %v\n%s", err, b)
	}
	return nil
}

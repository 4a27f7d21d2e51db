package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// sampleEvery is the latency sampling interval of the in-process loops:
// one call in 13 is bracketed by clock reads, so the two reads (~150 ns on
// this host) add about 10 ns to the mean operation. 13 is prime: the schedules
// repeat every 4 and 5 operations, and an interval of 16 would sample one
// slot of embed-write's cycle and nothing else.
const sampleEvery = 13

// How a timed number is estimated. This host is a 2-vCPU guest that shares its
// cores, its last-level cache and its memory with neighbours who come and go.
// Within one run the 2 ms blocks of an in-process loop spread by 40 % between
// the slowest and the fastest decile, and how many of them are slow changes
// from minute to minute; a probe loop of plain arithmetic run between the
// blocks does not tell the slow ones from the fast ones, so it is not the
// other hardware thread alone. Over five sets of ten runs each, taken on four
// days, the run-to-run spread (interquartile range over median) of the median
// block reached 17 % on embed-read, 16 % on embed-write and 30 % on
// wire-mixed; of the fastest fiftieth of the blocks, 9 %, 5 % and 18 %. So the
// timed metrics of a phase are read from its fast blocks: what the code does
// while the host leaves it alone. The median over all blocks is printed
// beside them (q50).
const (
	defaultBlockMs = 2

	// blockShare is the share of a phase's blocks, the fastest by throughput,
	// that its timed metrics are read from.
	blockShare = 0.02

	// cycleShare is the share of reopen or rebuild cycles that beat the one a
	// cycle metric is read at. A run has some twenty cycles, so 2 % would be
	// the single fastest: in the same sets the fastest cycle spread up to
	// 29 %, the median 26 %, the one a tenth of them beat 23 %.
	cycleShare = 0.10
)

// setupRepeats is how many times an end-to-end run sets its store up; setup_s
// is the median. First-touch page faults of a fresh arena make one set-up the
// noisiest number of a run: two in one process have read 4.4 s and 8.7 s.
const setupRepeats = 3

// timeSetup runs build setupRepeats times — once in a traced run, which does
// not report setup_s — calling drop on every result but the last, and reports
// the median wall time as setup_s. The collector runs before each timer starts,
// so one set-up does not pay for the previous one's garbage.
func timeSetup(cfg *config, rep *report, build func() error, drop func()) error {
	n := setupRepeats
	if cfg.trace {
		n = 1
	}
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			drop()
		}
		runtime.GC()
		start := time.Now()
		if err := build(); err != nil {
			return err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	if !cfg.trace {
		rep.setMedian("setup_s", secs)
	}
	rep.mark("setup")
	return nil
}

// minCycles is the fewest reopen cycles behind a recovery_s, however short
// the timed budget.
const minCycles = 3

// fastest returns the value that the given share of xs beat: the low tail
// where lower is better, the high tail where higher is.
func fastest(xs []float64, share float64, higherIsBetter bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(share * float64(len(s)))
	if higherIsBetter {
		i = len(s) - 1 - i
	}
	return s[i]
}

// cpuClock reads the CPU time a process has used so far.
type cpuClock func() time.Duration

// block is one slice of a timed phase.
type block struct {
	Ops   int     `json:"ops"`
	Wall  int64   `json:"wall_ns"`
	CPU   int64   `json:"cpu_ns"` // of the process that hosts the store
	P50Ns float64 `json:"p50_ns"` // median of the block's sampled calls
}

// phase is what one timed phase measured.
type phase struct {
	blocks []block
	latNs  []float64 // duration of every sampled call
	ops    int64     // completed ops over the whole phase
}

func (p *phase) column(f func(block) float64) []float64 {
	out := make([]float64, len(p.blocks))
	for i, b := range p.blocks {
		out[i] = f(b)
	}
	return out
}

// fast returns the fastest blockShare of the phase's blocks by throughput, and
// no fewer than five where a short phase has them: the CPU clock of another
// process moves only when it is switched out or a tick falls, so over one or
// two blocks the daemon's CPU time can read 0.
func (p *phase) fast() []block {
	bs := append([]block(nil), p.blocks...)
	rate := func(b block) float64 { return float64(b.Ops) / float64(b.Wall) }
	sort.Slice(bs, func(i, j int) bool { return rate(bs[i]) > rate(bs[j]) })
	n := int(blockShare * float64(len(bs)))
	if n < 5 {
		n = min(5, len(bs))
	}
	return bs[:n]
}

// fastTotals sums operations, wall time and CPU time over the fast blocks.
func (p *phase) fastTotals() (ops, wallNs, cpuNs float64) {
	for _, b := range p.fast() {
		ops, wallNs, cpuNs = ops+float64(b.Ops), wallNs+float64(b.Wall), cpuNs+float64(b.CPU)
	}
	return ops, wallNs, cpuNs
}

// fastKops is the phase's throughput over its fast blocks.
func (p *phase) fastKops() float64 {
	ops, wallNs, _ := p.fastTotals()
	return ops / (wallNs / 1e6)
}

// fastCPUUs is the CPU microseconds per completed operation over the fast
// blocks.
func (p *phase) fastCPUUs() float64 {
	ops, _, cpuNs := p.fastTotals()
	return cpuNs / 1e3 / math.Max(ops, 1)
}

// report sets the three timed metrics of a phase from its fast blocks: their
// operations over their time, their CPU time over their operations, and the
// median of their median sampled calls. The quartiles printed beside each are
// over all blocks.
func (p *phase) report(rep *report) {
	var p50 []float64
	for _, b := range p.fast() {
		p50 = append(p50, b.P50Ns/1e3)
	}
	rep.setSamples("throughput_kops", p.fastKops(), p.kops())
	rep.setSamples("cpu_us_per_op", p.fastCPUUs(), p.cpuUs())
	rep.setSamples("lat_p50_us", median(p50), p.p50Us())
}

// kops is each block's completed operations per millisecond.
func (p *phase) kops() []float64 {
	return p.column(func(b block) float64 { return float64(b.Ops) / (float64(b.Wall) / 1e6) })
}

// cpuUs is each block's CPU microseconds per completed operation; a block in
// which every operation failed charges its whole CPU time to one.
func (p *phase) cpuUs() []float64 {
	return p.column(func(b block) float64 { return float64(b.CPU) / 1e3 / math.Max(float64(b.Ops), 1) })
}

// p50Us is each block's median sampled latency in microseconds.
func (p *phase) p50Us() []float64 {
	return p.column(func(b block) float64 { return b.P50Ns / 1e3 })
}

// run drives op in a closed loop from the calling goroutine for at least
// total, in blocks of at least dur each, and appends what it measured to p.
// op performs one call (one operation, or one pipelined burst) and returns
// how many operations completed. Every every-th call is timed on its own;
// when sampled is non-nil that call goes through it instead, which is how the
// traced pass records spans for the same one-in-N operations. cpu is read at
// each block boundary.
func (p *phase) run(total, dur time.Duration, every int, cpu cpuClock, op, sampled func() int) {
	if sampled == nil {
		sampled = op
	}
	var lat []float64
	for begin := time.Now(); time.Since(begin) < total; {
		first := len(p.latNs)
		cpu0 := cpu()
		start := time.Now()
		n := 0
		for {
			for i := 1; i < every; i++ {
				n += op()
			}
			t0 := time.Now()
			n += sampled()
			t1 := time.Now()
			p.latNs = append(p.latNs, float64(t1.Sub(t0)))
			if el := t1.Sub(start); el >= dur {
				lat = append(lat[:0], p.latNs[first:]...)
				sort.Float64s(lat)
				p.blocks = append(p.blocks, block{n, int64(el), int64(cpu() - cpu0), lat[len(lat)/2]})
				break
			}
		}
		p.ops += int64(n)
	}
}

// runBlocks is run on a fresh phase.
func runBlocks(total, dur time.Duration, every int, cpu cpuClock, op, sampled func() int) phase {
	var p phase
	p.run(total, dur, every, cpu, op, sampled)
	return p
}

// timeOps runs op n times and returns the mean nanoseconds per call.
func timeOps(n int, op func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		op(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// Command benchmark is the repository's one yardstick for performance
// claims: four workloads, nine end-to-end metrics each, and a per-layer
// ledger measured from outside the product code. BENCHMARK.json at the
// repository root names the command, the workloads and every metric;
// README.md in this directory says why each was chosen and how the
// numbers are taken.
//
//	bash benchmark/run.sh --workload embed-read --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -all            # every workload, untraced
//	bash benchmark/run.sh -all --trace 1  # every workload, per-layer pass
//	bash benchmark/run.sh -selfcheck      # two sets of runs against the bounds
//
// The last line of standard output of a single-workload run is one JSON
// object {"correct","attempted","failed","metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef is one named metric: its unit and which way is better.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd lists the nine end-to-end metrics every workload reports.
// BENCHMARK.json carries the same names plus each one's regression bound.
var endToEnd = []metricDef{
	{"throughput_kops", "kops/s", "higher"},
	{"lat_p50_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"setup_s", "s", "lower"},
	{"recovery_s", "s", "lower"},
	{"pm_persists_per_op", "1/op", "lower"},
	{"pm_reads_per_op", "1/op", "lower"},
	{"pm_bytes_per_user_byte", "B/B", "lower"},
	{"dram_bytes_per_record", "B", "lower"},
}

// perLayer lists the per-layer metrics the traced run reports, named
// <module>.<metric>. Every workload's traced run measures all of them on
// fixtures built from that workload's keys and latency configuration.
var perLayer = []metricDef{
	{"pmem.reads_per_get_hit", "1/op", "lower"},
	{"pmem.reads_per_get_miss", "1/op", "lower"},
	{"pmem.persists_per_put", "1/op", "lower"},
	{"pmem.persists_per_delete", "1/op", "lower"},
	{"pmem.persisted_lines_per_op", "1/op", "lower"},
	{"pmem.bytes_written_per_user_byte", "B/B", "lower"},
	{"pmem.read8_ns", "ns", "lower"},
	{"pmem.persist_ns", "ns", "lower"},
	{"pmem.file_sync_ms", "ms", "lower"},
	{"pmem.syncs", "count", "lower"},

	{"epalloc.alloc_setbit_ns", "ns", "lower"},
	{"epalloc.release_ns", "ns", "lower"},
	{"epalloc.ulog_claims_per_op", "1/op", "lower"},
	{"epalloc.fresh_chunks", "count", "lower"},
	{"epalloc.chunk_reuses", "count", "higher"},
	{"epalloc.recycles", "count", "higher"},
	{"epalloc.steals", "count", "lower"},
	{"epalloc.iterate_ns_per_obj", "ns", "lower"},

	{"art.get_ns", "ns", "lower"},
	{"art.cow_insert_ns", "ns", "lower"},
	{"art.cow_delete_ns", "ns", "lower"},
	{"art.batch_insert_ns_per_key", "ns", "lower"},
	{"art.height", "count", "lower"},
	{"art.node4s", "count", "lower"},
	{"art.node16s", "count", "lower"},
	{"art.node48s", "count", "lower"},
	{"art.node256s", "count", "lower"},
	{"art.bytes_per_record", "B", "lower"},

	{"hashdir.get_ns", "ns", "lower"},
	{"hashdir.clone_ns", "ns", "lower"},
	{"hashdir.entries", "count", "lower"},
	{"hashdir.clones_per_op", "1/op", "lower"},
	{"hashdir.dram_bytes", "B", "lower"},

	{"core.get_hit_ns", "ns", "lower"},
	{"core.get_miss_ns", "ns", "lower"},
	{"core.put_insert_ns", "ns", "lower"},
	{"core.put_update_ns", "ns", "lower"},
	{"core.delete_ns", "ns", "lower"},
	{"core.scan_ns_per_record", "ns", "lower"},
	{"core.putbatch256_ns_per_record", "ns", "lower"},
	{"core.self_ns_get", "ns", "lower"},
	{"core.self_ns_put", "ns", "lower"},
	{"core.lat_p99_us", "us", "lower"},
	{"core.lat_p99_n", "count", "higher"},
	{"core.allocs_per_get", "1/op", "lower"},
	{"core.allocs_per_put", "1/op", "lower"},
	{"core.dir_republish_per_op", "1/op", "lower"},
	{"core.seq_retries_per_get", "1/op", "lower"},
	{"core.locked_fallbacks", "count", "lower"},
	{"core.get_kops_beside_writer", "kops/s", "higher"},
	{"core.put_kops_beside_reader", "kops/s", "higher"},
	{"core.recovery_ulog_s", "s", "lower"},
	{"core.recovery_scan_s", "s", "lower"},
	{"core.recovery_build_s", "s", "lower"},
	{"core.recovery_sweep_s", "s", "lower"},
	{"core.lazy_first_read_s", "s", "lower"},
	{"core.lazy_drain_s", "s", "lower"},

	{"obs.timing_on_overhead_pct", "%", "lower"},
	{"obs.snapshot_us", "us", "lower"},

	{"wire.append_request_ns", "ns", "lower"},
	{"wire.decode_request_ns", "ns", "lower"},
	{"wire.append_response_ns", "ns", "lower"},
	{"wire.decode_response_ns", "ns", "lower"},
	{"wire.bytes_per_op", "B", "lower"},

	{"server.cpu_us_per_get", "us", "lower"},
	{"server.cpu_us_per_put", "us", "lower"},
	{"server.puts_per_batch", "count", "higher"},
	{"server.coalesced_share", "%", "higher"},
	{"server.protocol_errors", "count", "lower"},
	{"server.self_us_per_op", "us", "lower"},

	{"client.cpu_us_per_op", "us", "lower"},
	{"client.get_rtt_p50_us", "us", "lower"},
	{"client.put_rtt_p50_us", "us", "lower"},
	{"client.burst_p50_us", "us", "lower"},
	{"client.burst_p99_us", "us", "lower"},
	{"client.burst_n", "count", "higher"},

	{"hartd.start_to_listening_s", "s", "lower"},
	{"hartd.sigterm_to_exit_s", "s", "lower"},
	{"hartd.rss_mb", "MB", "lower"},

	{"trace.overhead_pct", "%", "lower"},
}

// workloadDef is one workload: its default size and the function that runs it.
type workloadDef struct {
	Name    string
	Records int
	Run     func(*config, *report) error
}

var workloads = []workloadDef{
	{"embed-read", embedReadRecords, runEmbedRead},
	{"embed-write", embedWriteRecords, runEmbedWrite},
	{"wire-mixed", wireRecords, runWireMixed},
	{"restart", restartRecords, runRestart},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// config is one run's parameters. The zero-valued size fields take the
// workload's defaults; the smoke test shrinks them.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	records int     // preloaded records (0 = workload default)
	blockMs float64 // block length

	hartd string // hartd binary (built into tmp when empty)
	tmp   string // scratch directory for store files and builds
	out   string // directory for result and trace files

	stdout, stderr io.Writer
}

func (c *config) blockDur() time.Duration {
	return time.Duration(c.blockMs * float64(time.Millisecond))
}

// phaseDur returns the length of a phase that takes the given share of the
// timed budget, never less than three blocks.
func (c *config) phaseDur(share float64) time.Duration {
	d := time.Duration(c.seconds * share * float64(time.Second))
	if min := 3 * c.blockDur(); d < min {
		d = min
	}
	return d
}

// spare is how many keys beyond the preloaded ones a traced run generates:
// the per-layer sweep inserts them and deletes them again.
func (c *config) spare() int {
	if !c.trace {
		return 0
	}
	return c.records/10 + 2*wireBatch
}

// scaled shrinks a fixed op count for stores smaller than the default,
// so the smoke test's count phases stay proportionate.
func (c *config) scaled(ops, defaultRecords int) int {
	if c.records >= defaultRecords {
		return ops
	}
	n := int(int64(ops) * int64(c.records) / int64(defaultRecords))
	if n < 200 {
		n = 200
	}
	return n
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{stdout: stdout, stderr: stderr}
	var (
		trace     = fs.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = end-to-end run")
		all       = fs.Bool("all", false, "run every workload in turn, one child process each")
		selfcheck = fs.Bool("selfcheck", false, "run two sets of runs of every workload and compare them against the bounds")
		runs      = fs.Int("runs", 3, "runs per workload and set for -selfcheck")
		dirty     = fs.String("dirty-child", "", "internal: open this store, write more records, exit without Close")
		spin      = fs.Int("idle-spin", -1, "internal: spin on this CPU at idle priority until killed")
	)
	fs.StringVar(&cfg.workload, "workload", "", "workload name (embed-read, embed-write, wire-mixed, restart)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for keys and operation streams")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	fs.IntVar(&cfg.records, "records", 0, "preloaded records (0 = workload default)")
	fs.Float64Var(&cfg.blockMs, "block-ms", defaultBlockMs, "block length in milliseconds")
	fs.StringVar(&cfg.hartd, "hartd", "", "hartd binary (built from source when empty)")
	fs.StringVar(&cfg.tmp, "tmp", "", "scratch directory (default .bench_build/tmp at the repository root)")
	fs.StringVar(&cfg.out, "out", "", "directory for result and trace files (default benchmark/out)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace != 0
	if cfg.seconds <= 0 || cfg.blockMs <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds and -block-ms must be positive")
		return 2
	}
	if *spin >= 0 {
		return idleSpin(*spin, stdout, stderr)
	}
	if *dirty != "" {
		return dirtyChild(*dirty, cfg)
	}
	if err := cfg.resolveDirs(); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	switch {
	case *selfcheck:
		return runSelfcheck(cfg, *runs)
	case *all:
		return runAll(cfg)
	}
	wl := findWorkload(cfg.workload)
	if wl == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", cfg.workload)
		return 2
	}
	rep, err := runWorkload(cfg, wl)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	rep.print(stdout)
	if err := rep.writeFiles(cfg); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, rep.resultLine())
	return 0
}

// resolveDirs fills the scratch and output directories relative to the
// repository root (the directory holding BENCHMARK.json) and makes sure a
// hartd binary exists, building it before any timer starts.
func (c *config) resolveDirs() error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	if c.tmp == "" {
		c.tmp = filepath.Join(root, ".bench_build", "tmp")
	}
	if c.out == "" {
		c.out = filepath.Join(root, "benchmark", "out")
	}
	for _, d := range []string{c.tmp, c.out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	if c.hartd == "" {
		c.hartd = filepath.Join(c.tmp, "hartd")
		if err := buildHartd(filepath.Join(root, "benchmark"), c.hartd); err != nil {
			return err
		}
	}
	return nil
}

// repoRoot walks up from the working directory to the one that holds
// BENCHMARK.json.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found above the working directory")
		}
		dir = parent
	}
}

// runWorkload runs one workload in this process and returns its report.
func runWorkload(cfg *config, wl *workloadDef) (*report, error) {
	if cfg.records == 0 {
		cfg.records = wl.Records
	}
	rep := newReport(cfg)
	spinners, stop := keepAwake()
	defer stop()
	rep.Env.IdleSpinners = spinners
	steal0 := readProcStat()
	start := time.Now()
	if err := wl.Run(cfg, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", wl.Name, err)
	}
	rep.Env.WallS = time.Since(start).Seconds()
	rep.Env.StealPct = stealPct(steal0, readProcStat())
	rep.Env.GOMAXPROCS = runtime.GOMAXPROCS(0)
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	for _, m := range want {
		if _, ok := rep.Metrics[m.Name]; !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", wl.Name, m.Name)
		}
	}
	return rep, nil
}

// value is one measured metric. N, Q25, Q50 and Q75 describe the samples
// behind it and appear in the printed report and the result file; the final
// JSON line carries only value and unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q25   float64 `json:"q25,omitempty"`
	Q50   float64 `json:"q50,omitempty"`
	Q75   float64 `json:"q75,omitempty"`

	Samples []float64 `json:"samples,omitempty"` // kept when there are few: cycles, set-ups
}

// report collects what one run measured.
type report struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Env       envBlock           `json:"env"`
	Attempted int64              `json:"ops_attempted"`
	Failed    int64              `json:"ops_failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]value   `json:"metrics"`
	Ledger    []ledgerRow        `json:"ledger,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	Phases    []phaseWall        `json:"phases"`
	Blocks    map[string][]block `json:"blocks,omitempty"` // raw blocks of the end-to-end phases

	lastMark time.Time

	defs map[string]metricDef
}

func newReport(cfg *config) *report {
	r := &report{
		Workload: cfg.workload,
		Trace:    cfg.trace,
		Env:      readEnv(cfg),
		Metrics:  map[string]value{},
		Blocks:   map[string][]block{},
		defs:     map[string]metricDef{},
		lastMark: time.Now(),
	}
	for _, m := range endToEnd {
		r.defs[m.Name] = m
	}
	for _, m := range perLayer {
		r.defs[m.Name] = m
	}
	return r
}

// phaseWall is how long one phase of the run took, for the time budget.
type phaseWall struct {
	Name string  `json:"name"`
	S    float64 `json:"s"`
}

// mark closes the phase that ran since the previous mark.
func (r *report) mark(name string) {
	now := time.Now()
	r.Phases = append(r.Phases, phaseWall{name, now.Sub(r.lastMark).Seconds()})
	r.lastMark = now
}

// set records a metric by name; an unknown name is a bug in the benchmark.
func (r *report) set(name string, v float64) {
	r.setSamples(name, v, nil)
}

// setMedian records the median of samples together with their quartiles.
func (r *report) setMedian(name string, samples []float64) {
	r.setSamples(name, median(samples), samples)
}

// setFast records the sample that the given share of samples beat (see
// fastest), together with their quartiles.
func (r *report) setFast(name string, samples []float64, share float64) {
	r.setSamples(name, fastest(samples, share, r.defs[name].Better == "higher"), samples)
}

func (r *report) setSamples(name string, v float64, samples []float64) {
	def, ok := r.defs[name]
	if !ok {
		panic("benchmark: unregistered metric " + name)
	}
	q25, q50, q75 := quartiles(samples)
	m := value{Value: v, Unit: def.Unit, N: len(samples), Q25: q25, Q50: q50, Q75: q75}
	if len(samples) <= 100 {
		m.Samples = samples
	}
	r.Metrics[name] = m
}

// ok counts one attempted operation or check; a false outcome is a failure
// and keeps the first few descriptions for the report.
func (r *report) ok(cond bool, format string, args ...any) bool {
	r.Attempted++
	if !cond {
		r.fail(format, args...)
	}
	return cond
}

// fail counts a failure that was already counted as attempted.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// resultLine is the contract's last line of standard output.
func (r *report) resultLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]mv{}}
	for name, v := range r.Metrics {
		out.Metrics[name] = mv{v.Value, v.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only NaN/Inf can fail; every metric is a finite ratio
	}
	return string(b)
}

// print writes the human-readable report: env block, metrics, ledger.
func (r *report) print(w io.Writer) {
	e := r.Env
	fmt.Fprintf(w, "== %s (trace=%v) seed=%d records=%d timed=%gs blocks=%gms\n", r.Workload, r.Trace, e.Seed, e.Records, e.Seconds, e.BlockMs)
	fmt.Fprintf(w, "env: nproc=%d gomaxprocs=%d hartd_gomaxprocs=%d idle_spinners=%d go=%s kernel=%s commit=%s steal=%.2f%% wall=%.1fs\n",
		e.NProc, e.GOMAXPROCS, e.HartdGOMAXPROCS, e.IdleSpinners, e.GoVersion, e.Kernel, e.Commit, e.StealPct, e.WallS)
	if e.IdleSpinners == 0 {
		fmt.Fprintln(w, "WARNING: no idle spinners — vCPUs halt between wake-ups and timed metrics read slower and wider")
	}
	if e.StealPct > 5 {
		fmt.Fprintf(w, "WARNING: steal %.1f%% > 5%% — timed metrics of this run are suspect\n", e.StealPct)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := r.Metrics[n]
		if v.N > 0 {
			fmt.Fprintf(w, "  %-36s %14.6g %-7s n=%d q25=%.6g q50=%.6g q75=%.6g\n", n, v.Value, v.Unit, v.N, v.Q25, v.Q50, v.Q75)
		} else {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, v.Value, v.Unit)
		}
	}
	fmt.Fprintf(w, "  ops_attempted=%d ops_failed=%d\n", r.Attempted, r.Failed)
	fmt.Fprint(w, "  phases:")
	for _, p := range r.Phases {
		fmt.Fprintf(w, " %s %.1fs", p.Name, p.S)
	}
	fmt.Fprintln(w)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	printLedger(w, r.Workload, r.Ledger)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
}

// writeFiles stores the full report next to the trace file.
func (r *report) writeFiles(cfg *config) error {
	name := "result-" + r.Workload + ".json"
	if r.Trace {
		name = "result-" + r.Workload + "-trace.json"
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.out, name), append(b, '\n'), 0o644)
}

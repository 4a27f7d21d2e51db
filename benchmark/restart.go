package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	hart "github.com/casl-sdsu/hart"
)

// restart bulk-loads a file-backed store, closes it, and times reopening it:
// recovery's scan -> bulk art.Batch build -> hashdir.NewFromSorted pipeline,
// which no other workload times.
const (
	restartRecords   = 250_000
	restartArenaSize = 256 << 20
	restartDirtyKeys = 10_000
	restartSampled   = 1_000
)

// restartStore is a closed store file with the model of its contents. The
// keyset holds restartDirtyKeys keys beyond the loaded ones for the child
// that exits without Close.
type restartStore struct {
	path string
	ks   *keyset
	m    *model
	rep  *report
}

// loadRecords writes keys [from, to) with PutBatch(256), so batch-write and
// file-backend cost land in setup_s.
func loadRecords(rep *report, db *hart.DB, ks *keyset, m *model, from, to int) {
	recs := make([]hart.Record, 0, wireBatch)
	vals := make([]byte, wireBatch*valueLen)
	for i := from; i < to; i += len(recs) {
		recs = recs[:0]
		for j := i; j < to && len(recs) < wireBatch; j++ {
			v := m.nextValue(uint32(j), vals[len(recs)*valueLen:][:valueLen])
			recs = append(recs, hart.Record{Key: ks.key(uint32(j)), Value: v})
		}
		applied, err := db.PutBatch(recs)
		rep.Attempted += int64(len(recs))
		if err != nil || applied != len(recs) {
			rep.fail("load batch at %d: applied %d of %d: %v", i, applied, len(recs), err)
		}
	}
	m.nlive = to
}

func newRestartStore(cfg *config, rep *report, extra int) (*restartStore, error) {
	s := &restartStore{
		path: filepath.Join(cfg.tmp, fmt.Sprintf("restart-%d-%d.pm", os.Getpid(), time.Now().UnixNano())),
		ks:   newKeyset(cfg.records+extra, cfg.seed),
		rep:  rep,
	}
	s.m = newModel(s.ks)
	db, err := hart.Open(s.path, hart.Options{ArenaSize: restartArenaSize})
	if err != nil {
		return nil, err
	}
	loadRecords(rep, db, s.ks, s.m, 0, cfg.records)
	return s, db.Close()
}

// cycleStats is what one open-to-drained cycle measured.
type cycleStats struct {
	begin          time.Time
	first, drained time.Duration // Open until the first read / until DrainRecovery returned
	cpu            time.Duration
	reads, persist float64
	rs             recoveryPhases
}

type recoveryPhases struct{ ulog, scan, build, sweep float64 }

// cycle opens the file, reads one key, drains recovery, then checks Len and
// a sample of keys and closes. Timing stops before the checks.
func (s *restartStore) cycle(lazy bool, r *rng) (cycleStats, error) {
	var c cycleStats
	buf := make([]byte, 0, hart.MaxValueLen)
	first := s.m.pickLive(r)
	runtime.GC() // the index the last cycle closed is garbage; collect it outside the timer
	cpu := processCPU(0)
	cpu0 := cpu()
	start := time.Now()
	c.begin = start
	db, err := hart.Open(s.path, hart.Options{RecoveryWorkers: runtime.NumCPU(), LazyRecovery: lazy})
	if err != nil {
		return c, err
	}
	v, ok := db.GetInto(s.ks.key(first), buf[:0])
	c.first = time.Since(start)
	db.DrainRecovery()
	c.drained = time.Since(start)
	c.cpu = cpu() - cpu0
	ctr := db.Metrics().Counters
	c.reads, c.persist = float64(ctr["pm.reads"]), float64(ctr["pm.persists"])
	rs := db.LastRecoveryStats()
	c.rs = recoveryPhases{float64(rs.ULogNs) / 1e9, float64(rs.ScanNs) / 1e9, float64(rs.BuildNs) / 1e9, float64(rs.SweepNs) / 1e9}

	s.rep.ok(ok && s.m.valueOK(first, v), "first read after open %q: found=%v value=%x", s.ks.key(first), ok, v)
	s.rep.ok(db.Len() == s.m.nlive, "after open: Len=%d want %d", db.Len(), s.m.nlive)
	for i := 0; i < restartSampled; i++ {
		idx := s.m.pickLive(r)
		v, ok := db.GetInto(s.ks.key(idx), buf[:0])
		s.rep.ok(ok && s.m.valueOK(idx, v), "after open %q: found=%v value=%x", s.ks.key(idx), ok, v)
	}
	return c, db.Close()
}

// eagerCycles repeats eager cycles until the time budget is spent, at least
// min times.
func (s *restartStore) eagerCycles(min int, budget time.Duration, r *rng) ([]cycleStats, error) {
	var out []cycleStats
	for begin := time.Now(); len(out) < min || time.Since(begin) < budget; {
		c, err := s.cycle(false, r)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func column(cs []cycleStats, f func(cycleStats) float64) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = f(c)
	}
	return out
}

// dirtyCycle has a re-exec'd child write restartDirtyKeys more records and
// exit without Close, then reopens the image it left: the dirty flag must
// show, every record of the child must be there, and fsck must pass.
func (s *restartStore) dirtyCycle(cfg *config) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	from := s.m.nlive
	cmd := exec.Command(exe, "-dirty-child", s.path, "-seed", fmt.Sprint(cfg.seed), "-records", fmt.Sprint(s.ks.len()))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.CombinedOutput()
	if !s.rep.ok(err == nil, "dirty child: %v: %s", err, out) {
		return nil
	}
	for i := from; i < s.ks.len(); i++ {
		s.m.ver[i].Store(1)
	}
	s.m.nlive = s.ks.len()

	db, err := hart.Open(s.path, hart.Options{RecoveryWorkers: runtime.NumCPU()})
	if err != nil {
		return fmt.Errorf("open dirty image: %w", err)
	}
	defer db.Close()
	s.rep.ok(!db.LastRecoveryStats().WasClean, "dirty image carries the clean flag")
	buf := make([]byte, 0, hart.MaxValueLen)
	for i := from; i < s.ks.len(); i++ {
		v, ok := db.GetInto(s.ks.key(uint32(i)), buf[:0])
		s.rep.ok(ok && s.m.valueOK(uint32(i), v), "dirty image %q: found=%v value=%x", s.ks.key(uint32(i)), ok, v)
	}
	s.rep.ok(db.Len() == s.m.nlive, "dirty image: Len=%d want %d", db.Len(), s.m.nlive)
	err = db.Check()
	s.rep.ok(err == nil, "dirty image: fsck: %v", err)
	return nil
}

// dirtyChild is the re-exec'd half of dirtyCycle: it appends the keys of the
// same seeded keyset that the store does not hold yet and returns without
// closing the store, as a crashed process would: the superblock keeps its
// dirty flag.
func dirtyChild(path string, cfg *config) int {
	ks := newKeyset(cfg.records, cfg.seed)
	rep := newReport(cfg)
	db, err := hart.Open(path, hart.Options{})
	if err != nil {
		fmt.Fprintln(cfg.stderr, "dirty child:", err)
		return 1
	}
	loadRecords(rep, db, ks, newModel(ks), db.Len(), ks.len())
	if rep.Failed > 0 {
		fmt.Fprintln(cfg.stderr, "dirty child:", rep.Failures)
		return 1
	}
	return 0
}

func runRestart(cfg *config, rep *report) error {
	extra := cfg.scaled(restartDirtyKeys, restartRecords)
	if cfg.trace {
		extra = cfg.spare()
	}
	var s *restartStore
	err := timeSetup(cfg, rep, func() (err error) {
		s, err = newRestartStore(cfg, rep, extra)
		return err
	}, func() { os.Remove(s.path) })
	if err != nil {
		return err
	}
	defer os.Remove(s.path)
	if cfg.trace {
		return traceRestart(cfg, s)
	}

	// One discarded cycle: the first open after the load reads a file the
	// page cache has not settled yet and takes twice as long as the rest.
	r := newRNG(cfg.seed, 2)
	if _, err := s.cycle(false, r); err != nil {
		return err
	}
	// Eager and lazy cycles alternate, so both kinds sample the whole timed
	// budget and whatever the host does during it.
	var eager, lazy []cycleStats
	for begin := time.Now(); len(lazy) < minCycles || time.Since(begin) < cfg.phaseDur(1); {
		e, err := s.cycle(false, r)
		if err != nil {
			return err
		}
		l, err := s.cycle(true, r)
		if err != nil {
			return err
		}
		eager, lazy = append(eager, e), append(lazy, l)
	}
	rep.mark("cycles")
	recs := float64(s.m.nlive)
	rep.setFast("recovery_s", column(eager, func(c cycleStats) float64 { return c.drained.Seconds() }), cycleShare)
	rep.setFast("throughput_kops", column(eager, func(c cycleStats) float64 { return recs / c.drained.Seconds() / 1e3 }), cycleShare)
	rep.setFast("lat_p50_us", column(lazy, func(c cycleStats) float64 { return float64(c.first) / 1e3 }), cycleShare)
	rep.setFast("cpu_us_per_op", column(eager, func(c cycleStats) float64 { return float64(c.cpu) / 1e3 / recs }), cycleShare)
	rep.set("pm_reads_per_op", median(column(eager, func(c cycleStats) float64 { return c.reads / recs })))
	rep.set("pm_persists_per_op", median(column(eager, func(c cycleStats) float64 { return c.persist / recs })))

	db, err := hart.Open(s.path, hart.Options{RecoveryWorkers: runtime.NumCPU()})
	if err != nil {
		return err
	}
	st := db.Stats()
	rep.set("pm_bytes_per_user_byte", float64(st.Size.PMBytes)/float64(s.m.userBytes()))
	rep.set("dram_bytes_per_record", float64(st.Size.DRAMBytes)/float64(st.Records))
	if err := db.Close(); err != nil {
		return err
	}
	err = s.dirtyCycle(cfg)
	rep.mark("dirty-exit")
	return err
}

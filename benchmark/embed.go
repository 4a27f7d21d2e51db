package main

import (
	"fmt"
	"runtime"
	"time"

	hart "github.com/casl-sdsu/hart"
)

// The two embed workloads run the store in this process under the paper's
// 300/300 ns PM emulation. embed-read keeps 500,000 records (24 MB of PM,
// 1.5x the 16 MB modelled LLC, so a third of the PM reads stall) and only
// reads them; embed-write keeps 250,000 of a 500,000-key pool live (12 MB, inside
// the modelled LLC, so PM reads are cheap and persists dominate) and
// mutates them.
const (
	embedReadRecords  = 500_000
	embedWriteRecords = 250_000
	embedCountOps     = 200_000
)

func embedOptions(records int) hart.Options {
	size := int64(records) * 512 // leaves, values and churn headroom
	if size < 64<<20 {
		size = 64 << 20
	}
	return hart.Options{PMWriteNs: 300, PMReadNs: 300, ArenaSize: size}
}

// opKind is one operation type of the embed schedules.
type opKind uint8

const (
	opGetHit opKind = iota
	opGetMiss
	opUpdate
	opInsert
	opDelete
)

// embedStore is an in-process store with the model that checks it.
type embedStore struct {
	db  *hart.DB
	ks  *keyset
	m   *model
	rep *report
	buf []byte // GetInto destination
	val []byte // value being written
	nm  []byte // near-miss key
}

func newEmbedStore(db *hart.DB, m *model, rep *report) *embedStore {
	return &embedStore{
		db: db, ks: m.ks, m: m, rep: rep,
		buf: make([]byte, 0, hart.MaxValueLen), val: make([]byte, valueLen), nm: make([]byte, 0, hart.MaxKeyLen),
	}
}

// preload writes the first live keys of the pool, one Put each.
func (s *embedStore) preload(live int) {
	for i := 0; i < live; i++ {
		s.do(opInsert, uint32(i))
	}
	s.m.nlive = live
}

// do performs one operation on key idx, checks its outcome against the
// model and returns 1 when it completed correctly. The failure paths format
// their message only when taken, so the loop allocates nothing of its own.
func (s *embedStore) do(k opKind, idx uint32) int {
	s.rep.Attempted++
	key := s.ks.key(idx)
	switch k {
	case opGetHit:
		v, ok := s.db.GetInto(key, s.buf[:0])
		if ok && s.m.valueOK(idx, v) {
			return 1
		}
		s.rep.fail("get %q: found=%v value=%x want version %d", key, ok, v, s.m.ver[idx].Load())
	case opGetMiss:
		s.nm = s.ks.nearMiss(idx, s.nm)
		if _, ok := s.db.GetInto(s.nm, s.buf[:0]); !ok {
			return 1
		}
		s.rep.fail("get %q: absent key found", s.nm)
	case opUpdate, opInsert:
		err := s.db.Put(key, s.m.nextValue(idx, s.val))
		if err == nil {
			return 1
		}
		s.rep.fail("put %q: %v", key, err)
	case opDelete:
		err := s.db.Delete(key)
		if err == nil {
			return 1
		}
		s.rep.fail("delete %q: %v", key, err)
	}
	return 0
}

// mix yields the next operation of a workload's schedule. Operation types
// follow a fixed cycle and only the keys are random, so the op-type shares —
// and with them the count metrics — do not wander from seed to seed.
type mix func() (opKind, uint32)

// readMix is embed-read's schedule of 5: four Gets of present keys and one
// of a near-miss key. It writes nothing.
func (s *embedStore) readMix(r *rng) mix {
	i := 0
	return func() (opKind, uint32) {
		slot := i % 5
		i++
		if slot == 4 {
			return opGetMiss, s.m.pickLive(r)
		}
		return opGetHit, s.m.pickLive(r)
	}
}

// writeMix is embed-write's schedule of 4: update, insert, update, delete —
// 50 % / 25 % / 25 %, with the live count unchanged after each cycle.
func (s *embedStore) writeMix(r *rng) mix {
	i := 0
	return func() (opKind, uint32) {
		slot := i % 4
		i++
		switch slot {
		case 1:
			return opInsert, s.m.pickInsert(r)
		case 3:
			return opDelete, s.m.pickDelete(r)
		}
		return opUpdate, s.m.pickLive(r)
	}
}

func (s *embedStore) op(next mix) func() int {
	return func() int { return s.do(next()) }
}

// counterDelta runs fn and returns how far each store counter moved.
func counterDelta(metrics func() map[string]uint64, fn func()) map[string]float64 {
	before := metrics()
	fn()
	after := metrics()
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = float64(v) - float64(before[k])
	}
	return d
}

func (s *embedStore) counters() map[string]uint64 { return s.db.Metrics().Counters }

// countPhase runs n operations of the schedule and returns how far the
// store's counters moved. One goroutine and a seeded stream on a store fresh
// from set-up: the same seed gives the same counts, bit for bit.
func (s *embedStore) countPhase(n int, next mix) map[string]float64 {
	return counterDelta(s.counters, func() {
		for i := 0; i < n; i++ {
			s.do(next())
		}
	})
}

// measure takes the workload's timed metrics: the schedule in one stretch,
// then db.Rebuild — recovery from the PM image the schedule left — timed until
// a checked read succeeds and DrainRecovery returns, for half as long and at
// least minCycles times. The rebuilds come last, so the timed operations run
// on the index the workload's own Puts built.
func (s *embedStore) measure(cfg *config, next mix) {
	p := runBlocks(cfg.phaseDur(1), cfg.blockDur(), sampleEvery, processCPU(0), s.op(next), nil)
	p.report(s.rep)
	s.rep.Blocks["timed"] = p.blocks
	s.rep.mark("timed")

	var secs []float64
	r := newRNG(cfg.seed, 9)
	budget := cfg.phaseDur(0.5)
	for begin := time.Now(); len(secs) < minCycles || time.Since(begin) < budget; {
		runtime.GC() // start from a collected heap
		start := time.Now()
		err := s.db.Rebuild()
		ok := s.do(opGetHit, s.m.pickLive(r))
		s.db.DrainRecovery()
		secs = append(secs, time.Since(start).Seconds())
		s.rep.ok(err == nil && ok == 1, "rebuild %d: err=%v", len(secs), err)
		s.verify(len(s.m.perm)/1000 + 1)
	}
	s.rep.setFast("recovery_s", secs, cycleShare)
	s.rep.mark("recovery")
}

// spaceMetrics reports the footprint of the store as it stands.
func (s *embedStore) spaceMetrics() {
	st := s.db.Stats()
	s.rep.set("pm_bytes_per_user_byte", float64(st.Size.PMBytes)/float64(s.m.userBytes()))
	s.rep.set("dram_bytes_per_record", float64(st.Size.DRAMBytes)/float64(st.Records))
}

// verify compares every stride-th key of the pool with the model: a live
// key must hold its last written value, a dead key must be absent.
func verify(rep *report, m *model, stride int, get func(key []byte) ([]byte, bool), length int) {
	live := make([]bool, len(m.perm))
	for _, idx := range m.perm[:m.nlive] {
		live[idx] = true
	}
	for i := 0; i < len(live); i += stride {
		idx := uint32(i)
		v, ok := get(m.ks.key(idx))
		switch {
		case live[i]:
			rep.ok(ok && m.valueOK(idx, v), "verify %q: found=%v value=%x want version %d", m.ks.key(idx), ok, v, m.ver[idx].Load())
		default:
			rep.ok(!ok, "verify %q: deleted key found", m.ks.key(idx))
		}
	}
	rep.ok(length == m.nlive, "verify: Len=%d want %d", length, m.nlive)
}

func (s *embedStore) verify(stride int) {
	verify(s.rep, s.m, stride, func(k []byte) ([]byte, bool) { return s.db.GetInto(k, s.buf[:0]) }, s.db.Len())
}

// setupEmbed generates the pool's keys and preloads the live ones.
func setupEmbed(cfg *config, rep *report, pool, live int) (*embedStore, error) {
	var s *embedStore
	err := timeSetup(cfg, rep, func() error {
		ks := newKeyset(pool, cfg.seed)
		db, err := hart.New(embedOptions(pool))
		if err != nil {
			return err
		}
		s = newEmbedStore(db, newModel(ks), rep)
		s.preload(live)
		return nil
	}, func() { s.db.Close() })
	return s, err
}

func runEmbedRead(cfg *config, rep *report) error {
	s, err := setupEmbed(cfg, rep, cfg.records+cfg.spare(), cfg.records)
	if err != nil {
		return err
	}
	defer s.db.Close()
	if cfg.trace {
		return traceEmbed(cfg, s, s.readMix)
	}
	n := cfg.scaled(embedCountOps, embedReadRecords)
	d := s.countPhase(n, s.readMix(newRNG(cfg.seed, 1)))
	rep.set("pm_reads_per_op", d["pm.reads"]/float64(n))
	// The measured operations persist nothing, and a metric that reads 0 cannot
	// carry a relative bound. Persists are counted over every operation the
	// store has served so far — the preload's Puts and the count phase's Gets —
	// so a read that started to persist would show as well as a dearer insert.
	rep.set("pm_persists_per_op", float64(s.counters()["pm.persists"])/float64(cfg.records+n))
	s.spaceMetrics()
	rep.mark("count")
	s.measure(cfg, s.readMix(newRNG(cfg.seed, 2)))
	s.verify(10)
	rep.mark("verify")
	return nil
}

func runEmbedWrite(cfg *config, rep *report) error {
	s, err := setupEmbed(cfg, rep, 2*cfg.records, cfg.records)
	if err != nil {
		return err
	}
	defer s.db.Close()
	if cfg.trace {
		return traceEmbed(cfg, s, s.writeMix)
	}
	n := cfg.scaled(embedCountOps, embedWriteRecords)
	d := s.countPhase(n, s.writeMix(newRNG(cfg.seed, 1)))
	rep.set("pm_persists_per_op", d["pm.persists"]/float64(n))
	rep.set("pm_reads_per_op", d["pm.reads"]/float64(n))
	s.spaceMetrics() // here, not at the end: after a fixed stream the footprint repeats exactly
	rep.mark("count")
	s.measure(cfg, s.writeMix(newRNG(cfg.seed, 2)))
	s.verify(1)
	rep.mark("verify")
	err = crashReplay(cfg, rep)
	rep.mark("crash-replay")
	return err
}

// crashReplay runs embed-write's schedule — same seed, same stream — on a
// store that tracks which cache lines were persisted, takes the image a
// power failure would leave (every unpersisted line dropped), restores it and
// compares the result with the model. Every operation had returned, so every
// one must be there. The tracked arena costs ~25 us per operation, so the
// pool is a fifth of the workload's and the stream half as long as the pool.
func crashReplay(cfg *config, rep *report) error {
	pool := 2 * cfg.records / 5
	ks := newKeyset(pool, cfg.seed)
	db, err := hart.New(hart.Options{CrashSimulation: true, ArenaSize: embedOptions(pool).ArenaSize})
	if err != nil {
		return fmt.Errorf("crash replay: %w", err)
	}
	s := newEmbedStore(db, newModel(ks), rep)
	s.preload(pool / 2)
	next := s.writeMix(newRNG(cfg.seed, 1))
	for i := 0; i < pool/2; i++ {
		s.do(next())
	}
	img, err := db.CrashImage()
	db.Close()
	if err != nil {
		return fmt.Errorf("crash replay: %w", err)
	}
	re, err := hart.Restore(img, hart.Options{CrashSimulation: true})
	if !rep.ok(err == nil, "crash replay: restore: %v", err) {
		return nil
	}
	defer re.Close()
	s.db = re
	s.verify(1)
	err = re.Check()
	rep.ok(err == nil, "crash replay: fsck: %v", err)
	return nil
}

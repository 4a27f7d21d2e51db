package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	hart "github.com/casl-sdsu/hart"
	"github.com/casl-sdsu/hart/internal/art"
	"github.com/casl-sdsu/hart/internal/pmem"
)

// The per-layer sweep. Every workload's traced run measures every per-layer
// metric, on fixtures made from that workload's keys and its PM latency
// configuration: the in-process store s (the workload's own where it has
// one), the mirror's stand-alone layers, and a hartd child with one client.
// Counter ratios come from fixed-count phases, _ns figures from short timed
// loops; none of them is an end-to-end metric.
const (
	sweepCountOps    = 20_000  // per counted stream
	sweepKernelOps   = 100_000 // per stand-alone kernel loop
	sweepWireRecords = 100_000 // preloaded into the sweep's own hartd
	sweepSpans       = 2_000   // sampled operations behind core.self_ns_*
)

func mallocs() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs)
}

// counted runs n operations and returns the store counter deltas plus heap
// allocations per operation.
func (s *embedStore) counted(n int, op func()) (map[string]float64, float64) {
	var allocs float64
	d := counterDelta(s.counters, func() {
		a := mallocs()
		for i := 0; i < n; i++ {
			op()
		}
		allocs = (mallocs() - a) / float64(n)
	})
	return d, allocs
}

// nsPerOp times op for 3 % of the timed budget and returns the cost of one
// operation over the fast blocks, as the end-to-end metrics take it, with the
// phase for callers that want its samples.
func nsPerOp(cfg *config, op func() int) (float64, phase) {
	p := runBlocks(cfg.phaseDur(0.03), cfg.blockDur(), sampleEvery, processCPU(0), op, nil)
	return 1e6 / p.fastKops(), p
}

// sweepLayers runs every part of the sweep; with w nil it starts a hartd
// child of its own for the service path.
func sweepLayers(cfg *config, s *embedStore, mir *mirror, t *tracer, w *wireStore) error {
	rep := s.rep
	sweepStore(cfg, s)
	sweepBeside(cfg, s)
	sweepKernels(cfg, rep, mir)
	sweepSelf(cfg, s, mir, t)
	sweepRebuild(s)
	if w == nil {
		n := cfg.records
		if n > sweepWireRecords {
			n = sweepWireRecords
		}
		var err error
		if w, err = startWireStore(cfg, rep, s.ks, n); err != nil {
			return err
		}
		defer os.Remove(w.path)
	}
	return sweepWire(cfg, w)
}

// sweepStore takes the counter ratios and operation costs of the in-process
// store, one operation type at a time.
func sweepStore(cfg *config, s *embedStore) {
	rep, r := s.rep, newRNG(cfg.seed, 20)
	n := cfg.scaled(sweepCountOps, wireRecords)
	if spare := len(s.m.perm) - s.m.nlive; n > spare {
		n = spare // inserts draw from the dead keys of the pool
	}
	fn := float64(n)

	d, allocs := s.counted(n, func() { s.do(opGetHit, s.m.pickLive(r)) })
	rep.set("pmem.reads_per_get_hit", d["pm.reads"]/fn)
	rep.set("core.allocs_per_get", allocs)
	d, _ = s.counted(n, func() { s.do(opGetMiss, s.m.pickLive(r)) })
	rep.set("pmem.reads_per_get_miss", d["pm.reads"]/fn)

	// Puts: alternately an update of a live key and an insert of a dead one;
	// then as many deletes, which puts the live count back.
	var userBytes float64
	i := 0
	put, allocs := s.counted(n, func() {
		k, idx := opUpdate, uint32(0)
		if i++; i%2 == 0 {
			k, idx = opInsert, s.m.pickInsert(r)
		} else {
			idx = s.m.pickLive(r)
		}
		userBytes += float64(len(s.ks.key(idx)) + valueLen)
		s.do(k, idx)
	})
	del, _ := s.counted(n/2, func() { s.do(opDelete, s.m.pickDelete(r)) })
	both := func(name string) float64 { return put[name] + del[name] }
	ops := fn + float64(n/2)
	rep.set("pmem.persists_per_put", put["pm.persists"]/fn)
	rep.set("pmem.persists_per_delete", del["pm.persists"]/float64(n/2))
	rep.set("pmem.persisted_lines_per_op", both("pm.persisted_lines")/ops)
	rep.set("pmem.bytes_written_per_user_byte", put["pm.bytes_written"]/userBytes)
	rep.set("core.allocs_per_put", allocs)
	rep.set("epalloc.ulog_claims_per_op", both("alloc.ulog_claims")/ops)
	rep.set("epalloc.fresh_chunks", both("alloc.fresh_chunks"))
	rep.set("epalloc.chunk_reuses", both("alloc.chunk_reuses"))
	rep.set("epalloc.recycles", both("alloc.recycles"))
	rep.set("epalloc.steals", both("alloc.steals"))
	rep.set("hashdir.clones_per_op", both("dir.clones")/ops)
	rep.set("core.dir_republish_per_op", both("dir.republish")/ops)

	// Costs per operation type.
	ns, p := nsPerOp(cfg, func() int { return s.do(opGetHit, s.m.pickLive(r)) })
	rep.set("core.get_hit_ns", ns)
	rep.set("core.lat_p99_us", percentile(p.latNs, 0.99)/1e3)
	rep.set("core.lat_p99_n", float64(len(p.latNs)))
	ns, _ = nsPerOp(cfg, func() int { return s.do(opGetMiss, s.m.pickLive(r)) })
	rep.set("core.get_miss_ns", ns)
	ns, _ = nsPerOp(cfg, func() int { return s.do(opUpdate, s.m.pickLive(r)) })
	rep.set("core.put_update_ns", ns)
	rep.set("core.put_insert_ns", timeOps(n/2, func(int) { s.do(opInsert, s.m.pickInsert(r)) }))
	rep.set("core.delete_ns", timeOps(n/2, func(int) { s.do(opDelete, s.m.pickDelete(r)) }))

	// Range scans of 100 records from a uniform present key.
	var scanned int
	scanNs := timeOps(n/100+1, func(int) {
		left := 100
		s.db.Scan(s.ks.key(s.m.pickLive(r)), nil, func(k, v []byte) bool {
			scanned++
			left--
			return left > 0
		})
	})
	rep.Attempted += int64(n/100 + 1)
	rep.set("core.scan_ns_per_record", scanNs*float64(n/100+1)/float64(scanned))

	// PutBatch(256) of dead keys, deleted again afterwards.
	batches := n / 2 / wireBatch
	if batches < 1 {
		batches = 1
	}
	recs := make([]hart.Record, wireBatch)
	vals := make([]byte, wireBatch*valueLen)
	var inserted []uint32
	batchNs := timeOps(batches, func(int) {
		for j := range recs {
			idx := s.m.pickInsert(r)
			inserted = append(inserted, idx)
			recs[j] = hart.Record{Key: s.ks.key(idx), Value: s.m.nextValue(idx, vals[j*valueLen:][:valueLen])}
		}
		applied, err := s.db.PutBatch(recs)
		rep.ok(err == nil && applied == len(recs), "sweep PutBatch: applied %d: %v", applied, err)
	})
	rep.set("core.putbatch256_ns_per_record", batchNs/wireBatch)
	// The batch's keys are the newest live ones; retire exactly those.
	for range inserted {
		s.m.nlive--
		s.do(opDelete, s.m.perm[s.m.nlive])
	}

	// Latency histograms on against off, in alternating stretches so drift
	// cancels; then the cost of one snapshot.
	var off, on []float64
	for i := 0; i < 6; i++ {
		s.db.EnableMetrics(i%2 == 1)
		_, p := nsPerOp(cfg, func() int { return s.do(opGetHit, s.m.pickLive(r)) })
		if i%2 == 1 {
			on = append(on, p.kops()...)
		} else {
			off = append(off, p.kops()...)
		}
	}
	s.db.EnableMetrics(false)
	rep.set("obs.timing_on_overhead_pct", 100*(1-median(on)/median(off)))
	rep.set("obs.snapshot_us", timeOps(200, func(int) { s.db.Metrics() })/1e3)

	st := s.db.Stats()
	rep.set("art.height", float64(st.ART.Height))
	rep.set("art.node4s", float64(st.ART.Node4s))
	rep.set("art.node16s", float64(st.ART.Node16s))
	rep.set("art.node48s", float64(st.ART.Node48s))
	rep.set("art.node256s", float64(st.ART.Node256s))
	rep.set("art.bytes_per_record", float64(st.ART.Bytes)/float64(st.ART.Records))
	rep.set("hashdir.entries", float64(s.counters()["dir.entries"]))
}

// sweepBeside runs the write schedule with one reader goroutine beside it on
// the second vCPU: what readers pay for concurrent publication and what the
// writer pays for being read. The reader draws from the pinned half of the
// live keys, which the writer updates but never deletes, so every read must
// hit; a value may be any version up to the newest the writer has issued.
func sweepBeside(cfg *config, s *embedStore) {
	rep := s.rep
	s.m.pinned = s.m.nlive / 2
	defer func() { s.m.pinned = 0 }()
	pinned := s.m.perm[:s.m.pinned]

	var stop atomic.Bool
	var gets, bad int64
	var wg sync.WaitGroup
	wg.Add(1)
	before := s.counters()
	begin := time.Now()
	go func() {
		defer wg.Done()
		r := newRNG(cfg.seed, 31)
		buf := make([]byte, 0, hart.MaxValueLen)
		for !stop.Load() {
			idx := pinned[r.intn(len(pinned))]
			v, ok := s.db.GetInto(s.ks.key(idx), buf[:0])
			gi, gv, dec := decodeValue(v)
			if !ok || !dec || gi != idx || gv == 0 || gv > s.m.ver[idx].Load() {
				bad++
			}
			gets++
		}
	}()
	p := runBlocks(cfg.phaseDur(0.1), cfg.blockDur(), sampleEvery, processCPU(0), s.op(s.writeMix(newRNG(cfg.seed, 30))), nil)
	stop.Store(true)
	wg.Wait()
	wall := time.Since(begin)
	after := s.counters()

	rep.Attempted += gets
	if bad > 0 {
		rep.Failed += bad
		rep.Failures = append(rep.Failures, fmt.Sprintf("beside phase: %d of %d concurrent reads wrong", bad, gets))
	}
	rep.set("core.get_kops_beside_writer", float64(gets)/(float64(wall)/1e6))
	rep.set("core.put_kops_beside_reader", p.fastKops())
	rep.set("core.seq_retries_per_get", float64(after["read.seq_retries"]-before["read.seq_retries"])/float64(gets))
	rep.set("core.locked_fallbacks", float64(after["read.locked_fallbacks"]-before["read.locked_fallbacks"]))
}

// sweepKernels times the stand-alone layers of the mirror.
func sweepKernels(cfg *config, rep *report, mir *mirror) {
	r := newRNG(cfg.seed, 40)
	n := cfg.scaled(sweepKernelOps, wireRecords)
	built := 0 // keys the trees hold
	mir.tab.Range(func(_ []byte, t *art.Tree) bool { built += t.Len(); return true })

	// A sample of keys with their trees resolved, so each loop times one
	// layer only.
	type sample struct {
		key  []byte
		tree *art.Tree
		leaf pmem.Ptr
	}
	samples := make([]sample, n)
	for i := range samples {
		idx := uint32(r.intn(built))
		samples[i] = sample{mir.ks.key(idx), mir.tree(mir.ks.key(idx)), mir.leaves[idx]}
	}
	rep.set("hashdir.get_ns", timeOps(n, func(i int) { mir.tab.Get(samples[i].key[:mirrorKH]) }))
	rep.set("art.get_ns", timeOps(n, func(i int) { samples[i].tree.Get(samples[i].key[mirrorKH:]) }))
	rep.set("art.cow_delete_ns", timeOps(n/4, func(i int) { samples[i].tree.CowDelete(samples[i].key[mirrorKH:]) }))
	absent := make([]byte, 0, hart.MaxKeyLen)
	rep.set("art.cow_insert_ns", timeOps(n/4, func(i int) {
		absent = append(absent[:0], samples[i].key...)
		absent[len(absent)-1] = '~'
		samples[i].tree.CowInsert(absent[mirrorKH:], 1)
	}))
	rep.set("art.batch_insert_ns_per_key", mir.batchNsPerKey)
	rep.set("hashdir.dram_bytes", float64(mir.tab.DRAMBytes()))
	rep.set("hashdir.clone_ns", median(repeat(21, func() float64 {
		return timeOps(1, func(int) { mir.tab.Clone() })
	})))

	rep.set("pmem.read8_ns", timeOps(n, func(i int) { mir.arena.Read8(samples[i].leaf) }))
	rep.set("pmem.persist_ns", timeOps(n/4, func(i int) {
		mir.arena.Write8(samples[i].leaf+32, uint64(i)) // the leaf's last word, past any key
		mir.arena.Persist(samples[i].leaf+32, 8)
	}))
	pairs := make([][2]pmem.Ptr, n/4)
	rep.set("epalloc.alloc_setbit_ns", timeOps(len(pairs), func(i int) {
		pairs[i][0], pairs[i][1] = mir.allocPair(samples[i].key)
	})/2)
	rep.set("epalloc.release_ns", timeOps(len(pairs), func(i int) { mir.releasePair(pairs[i][0], pairs[i][1]) })/2)
	objs := 0
	iterNs := timeOps(1, func(int) {
		mir.alloc.IterateObjects(mirrorLeafClass, func(pmem.Ptr, bool) bool { objs++; return true })
	})
	rep.set("epalloc.iterate_ns_per_obj", iterNs/float64(objs))

	// The wire codec over an even mix of Gets and Puts, on a ring of
	// pre-encoded messages so the decode loops time decoding alone.
	codecs := make([]codec, 1024)
	var val [valueLen]byte
	var bytes int
	rep.set("wire.append_request_ns", timeOps(n, func(i int) {
		bytes += codecs[i%len(codecs)].appendRequest(samples[i].key, val[:], i%2 == 1)
	}))
	rep.set("wire.decode_request_ns", timeOps(n, func(i int) { codecs[i%len(codecs)].decodeRequest() }))
	rep.set("wire.append_response_ns", timeOps(n, func(i int) { bytes += codecs[i%len(codecs)].appendResponse(val[:]) }))
	rep.set("wire.decode_response_ns", timeOps(n, func(i int) { codecs[i%len(codecs)].decodeResponse() }))
	rep.set("wire.bytes_per_op", float64(bytes)/float64(n))
}

func repeat(n int, fn func() float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = fn()
	}
	return out
}

// sweepSelf samples Gets and Puts through doTraced; what is left of each
// root span after the replayed kernels is core's own time.
func sweepSelf(cfg *config, s *embedStore, mir *mirror, t *tracer) {
	r := newRNG(cfg.seed, 50)
	n := cfg.scaled(sweepSpans, wireRecords)
	for i := 0; i < n; i++ {
		// Untraced operations between samples, as in the traced pass, so the
		// sampled one meets the caches a steady stream leaves behind.
		for j := 1; j < 16; j++ {
			s.do(opGetHit, s.m.pickLive(r))
		}
		s.doTraced(t, mir, opGetHit, s.m.pickLive(r))
		s.doTraced(t, mir, opUpdate, s.m.pickLive(r))
	}
	s.rep.setMedian("core.self_ns_get", t.selfNs(opNames[opGetHit]))
	s.rep.setMedian("core.self_ns_put", t.selfNs(opNames[opUpdate]))
}

// sweepRebuild splits in-place recovery into the phases the store reports.
func sweepRebuild(s *embedStore) {
	var ulog, scan, build, sweep []float64
	for c := 0; c < 3; c++ {
		err := s.db.Rebuild()
		s.rep.ok(err == nil, "sweep rebuild: %v", err)
		rs := s.db.LastRecoveryStats()
		ulog = append(ulog, float64(rs.ULogNs)/1e9)
		scan = append(scan, float64(rs.ScanNs)/1e9)
		build = append(build, float64(rs.BuildNs)/1e9)
		sweep = append(sweep, float64(rs.SweepNs)/1e9)
	}
	s.rep.setMedian("core.recovery_ulog_s", ulog)
	s.rep.setMedian("core.recovery_scan_s", scan)
	s.rep.setMedian("core.recovery_build_s", build)
	s.rep.setMedian("core.recovery_sweep_s", sweep)
	s.verify(len(s.m.perm)/1000 + 1)
}

// sweepWire measures the service path on a running hartd — client round
// trips, the daemon's CPU per operation type, coalescing — then shuts it down
// and uses the file it leaves for the file-backend and lazy-recovery figures
// and for the daemon's start-up time.
func sweepWire(cfg *config, w *wireStore) error {
	rep := w.rep
	procs := runtime.GOMAXPROCS(1) // one generator thread while the daemon runs; see hartdProcs
	const short, long = 0.05, 0.15 // shares of the timed budget

	r := newRNG(cfg.seed, 60)
	timed := func(share float64, op func() int) phase {
		var p phase
		w.timed(cfg, &p, share, op)
		return p
	}
	// A round trip is mostly wake-up; the block a tenth of the blocks beat is
	// the round trip while nothing has to be woken.
	p := timed(short, func() int { return w.get(r) })
	rep.setFast("client.get_rtt_p50_us", p.p50Us(), cycleShare)
	p = timed(short, func() int { return w.put(r) })
	rep.setFast("client.put_rtt_p50_us", p.p50Us(), cycleShare)

	p = timed(long, func() int { return w.burst(r, allGets) })
	rep.setSamples("server.cpu_us_per_get", p.fastCPUUs(), p.cpuUs())
	p = timed(long, func() int { return w.burst(r, allPuts) })
	rep.setSamples("server.cpu_us_per_put", p.fastCPUUs(), p.cpuUs())

	before, puts := w.stats(), w.puts
	self := processCPU(0)
	self0 := self()
	p = timed(long, w.mixed(r))
	rep.set("client.cpu_us_per_op", float64(self()-self0)/1e3/float64(p.ops))
	after := w.stats()
	serverUs := p.fastCPUUs()
	rep.set("client.burst_p50_us", median(p.latNs)/1e3)
	rep.set("client.burst_p99_us", percentile(p.latNs, 0.99)/1e3)
	rep.set("client.burst_n", float64(len(p.latNs)))
	srv := func(name string) float64 { return float64(after.Server[name] - before.Server[name]) }
	ctr := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	batches := srv("batches_formed")
	if batches == 0 {
		batches = 1
	}
	rep.set("server.puts_per_batch", srv("puts_coalesced")/batches)
	rep.set("server.coalesced_share", 100*srv("puts_coalesced")/float64(w.puts-puts))
	rep.set("server.protocol_errors", float64(after.Server["protocol_errors"]))
	rep.set("pmem.syncs", ctr("pm.syncs"))
	rep.set("hartd.rss_mb", procRSSMB(w.proc.pid()))

	w.cl.Close()
	took, err := w.proc.term()
	rep.ok(err == nil, "hartd exit after SIGTERM: %v", err)
	rep.set("hartd.sigterm_to_exit_s", took.Seconds())
	runtime.GOMAXPROCS(procs)

	// The same stream in this process on the file the daemon closed: the
	// store's share of the daemon's CPU. What is left after the codec is the
	// service layer's own.
	db, err := hart.Open(w.path, hart.Options{})
	if err != nil {
		return fmt.Errorf("sweep: reopen hartd's store: %w", err)
	}
	rep.ok(db.LastRecoveryStats().WasClean, "sweep: hartd's SIGTERM exit left no clean flag")
	tw := newEmbedStore(db, w.m, rep)
	coreNs, _ := nsPerOp(cfg, func() int {
		if r.next()&1 == 1 {
			return tw.do(opUpdate, w.m.pickLive(r))
		}
		return tw.do(opGetHit, w.m.pickLive(r))
	})
	codecNs := rep.Metrics["wire.decode_request_ns"].Value + rep.Metrics["wire.append_response_ns"].Value
	rep.set("server.self_us_per_op", serverUs-(coreNs+codecNs)/1e3)

	// File backend: a batch of updates, then Sync.
	recs := make([]hart.Record, wireBatch)
	vals := make([]byte, wireBatch*valueLen)
	rep.setMedian("pmem.file_sync_ms", repeat(9, func() float64 {
		for j := range recs {
			idx := w.m.pickLive(r)
			recs[j] = hart.Record{Key: w.ks.key(idx), Value: w.m.nextValue(idx, vals[j*valueLen:][:valueLen])}
		}
		_, err := db.PutBatch(recs)
		ns := timeOps(1, func(int) { err = db.Sync() })
		rep.ok(err == nil, "sweep sync: %v", err)
		return ns / 1e6
	}))
	if err := db.Close(); err != nil {
		return err
	}

	// Lazy recovery of that file: first read, then the drain.
	var first, drain []float64
	for c := 0; c < 3; c++ {
		begin := time.Now()
		db, err := hart.Open(w.path, hart.Options{RecoveryWorkers: runtime.NumCPU(), LazyRecovery: true})
		if err != nil {
			return err
		}
		tw.db = db
		tw.do(opGetHit, w.m.pickLive(r))
		first = append(first, time.Since(begin).Seconds())
		begin = time.Now()
		db.DrainRecovery()
		drain = append(drain, time.Since(begin).Seconds())
		if err := db.Close(); err != nil {
			return err
		}
	}
	rep.setMedian("core.lazy_first_read_s", first)
	rep.setMedian("core.lazy_drain_s", drain)

	// hartd's start on the populated store, recovery included.
	proc, err := startHartd(cfg, w.path)
	if err != nil {
		return err
	}
	rep.set("hartd.start_to_listening_s", proc.start.Seconds())
	proc.kill()
	return nil
}

// traceWire is wire-mixed's traced run. A sampled burst is a root span; its
// children replay the burst's 64 operations through the wire codec and
// through an in-process twin of the store, so the remainder of the burst is
// the socket, the daemon's service layer and the client's own bookkeeping.
func traceWire(cfg *config, w *wireStore) error {
	rep := w.rep
	opts := hart.Options{ArenaSize: wireArenaSize}
	path := filepath.Join(cfg.tmp, fmt.Sprintf("twin-%d.pm", os.Getpid()))
	defer os.Remove(path)
	db, err := hart.Open(path, opts)
	if err != nil {
		return err
	}
	defer db.Close()
	twin := newEmbedStore(db, newModel(w.ks), rep)
	twin.preload(w.m.nlive)
	mir, err := newMirror(w.ks, w.m.nlive, false)
	if err != nil {
		return err
	}
	t := newTracer()

	var codecs [wireBurst]codec
	var val [valueLen]byte
	tracedBurst := func(r *rng) func() int {
		return func() int {
			a := t.now()
			n := w.burst(r, halfPuts)
			t.open("client.burst", a, t.now(), wireBurst)
			t.time("wire.append_request", func() {
				for i, s := range w.slots {
					codecs[i].appendRequest(w.ks.key(s.idx), val[:], s.put)
				}
			})
			t.time("wire.decode_request", func() {
				for i := range codecs {
					codecs[i].decodeRequest()
				}
			})
			t.time("hart.exec", func() {
				for _, s := range w.slots {
					if s.put {
						twin.do(opUpdate, s.idx)
					} else {
						twin.do(opGetHit, s.idx)
					}
				}
			})
			t.time("wire.append_response", func() {
				for i := range codecs {
					codecs[i].appendResponse(val[:])
				}
			})
			t.time("wire.decode_response", func() {
				for i := range codecs {
					codecs[i].decodeResponse()
				}
			})
			return n
		}
	}
	tracePass(cfg, rep,
		func(stream uint64) func() int { return w.mixed(newRNG(cfg.seed, stream)) },
		func(stream uint64) (func() int, func() int) {
			r := newRNG(cfg.seed, stream)
			return w.mixed(r), tracedBurst(r)
		}, traceEveryBurst)

	rep.Ledger = t.ledger()
	rep.mark("trace-pass")
	runtime.GOMAXPROCS(runtime.NumCPU()) // the in-process sweep has a second goroutine
	if err := sweepLayers(cfg, twin, mir, t, w); err != nil {
		return err
	}
	wireSplit(rep)
	rep.mark("sweep")
	return writeTrace(cfg, t)
}

// wireSplit says what the part of a burst the replays do not cover — the
// root's self time — is made of, from the CPU accounting of the sweep: the
// daemon's service layer, this process's client, and what is left for the
// socket and for waiting. Daemon and client run on different vCPUs, so the
// first two overlap in time and the remainder can be negative.
func wireSplit(rep *report) {
	var self float64
	for _, r := range rep.Ledger {
		if r.Name == "client.burst" {
			self = r.SelfUsPerOp
		}
	}
	m := func(name string) float64 { return rep.Metrics[name].Value }
	server := m("server.self_us_per_op")
	cl := m("client.cpu_us_per_op") - (m("wire.append_request_ns")+m("wire.decode_response_ns"))/1e3
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"client.burst self %.3f us/op = server self %.3f (hartd CPU - store - codec) + client %.3f (this process's CPU - codec) + socket and waiting %.3f",
		self, server, cl, self-server-cl))
}

// traceRestart is restart's traced run. A sampled reopen is a root span
// whose children are the four recovery phases the store reports for it; a
// second root replays recovery's pipeline on the mirror: the allocator's
// object walk, one PM word read per leaf, the batch ART build, the directory.
func traceRestart(cfg *config, s *restartStore) error {
	rep := s.rep
	r := newRNG(cfg.seed, 2)
	if _, err := s.cycle(false, r); err != nil { // page-cache warm-up, as in the untraced run
		return err
	}
	t := newTracer()
	traced, err := s.eagerCycles(3, cfg.phaseDur(1.0/4), r)
	if err != nil {
		return err
	}
	// Nothing is recorded while a reopen runs: its spans are made afterwards
	// from the phase times the store reports. The traced cycles are the
	// untraced ones.
	rep.set("trace.overhead_pct", 0)

	db, err := hart.Open(s.path, hart.Options{RecoveryWorkers: runtime.NumCPU()})
	if err != nil {
		return err
	}
	defer db.Close()
	es := newEmbedStore(db, s.m, rep)
	mir, err := newMirror(s.ks, s.m.nlive, false)
	if err != nil {
		return err
	}
	// Each traced reopen is a root whose children are the phases the store
	// reported for it; under the scan and the build sit the same stages run
	// on the mirror: the allocator's object walk and one PM word per leaf,
	// the batch ART build and the directory (timed while the mirror was built).
	var word [8]byte
	for _, c := range traced {
		begin := t.now()
		mir.alloc.IterateObjects(mirrorLeafClass, func(pmem.Ptr, bool) bool { return true })
		iterate := t.now() - begin
		for _, leaf := range mir.leaves[:s.m.nlive] {
			mir.arena.ReadWords(leaf+8, word[:]) // key length and the key's first bytes
		}
		read := t.now() - begin - iterate

		start := int64(c.begin.Sub(t.t0))
		t.open("hart.open", start, start+int64(c.drained), s.m.nlive)
		t.child("core.recovery_ulog", int64(c.rs.ulog*1e9))
		t.child("core.recovery_scan", int64(c.rs.scan*1e9))
		t.enter()
		t.child("epalloc.iterate", iterate)
		t.child("pmem.read8", read)
		t.leave()
		t.child("core.recovery_sweep", int64(c.rs.sweep*1e9))
		t.child("core.recovery_build", int64(c.rs.build*1e9))
		t.enter()
		t.child("art.batch_insert", int64(mir.batchNsPerKey*float64(s.m.nlive)))
		t.child("hashdir.from_sorted", int64(mir.fromSortedNs))
		t.leave()
	}
	rep.Ledger = t.ledger()
	rep.mark("trace-pass")

	if err := sweepLayers(cfg, es, mir, t, nil); err != nil {
		return err
	}
	rep.mark("sweep")
	return writeTrace(cfg, t)
}

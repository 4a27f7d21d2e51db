package core

import "github.com/casl-sdsu/hart/internal/obs"

// coreObs bundles HART's observability state: always-on operation
// counters (striped atomic adds, see package obs), latency histograms
// gated behind one atomic flag so the disabled hot path never reads the
// clock, and the structured event ring recording rare state transitions
// (opens, allocator stripe steals, recovery phases).
// The zero value is ready to use — HART embeds it by value and never
// initialises it explicitly.
type coreObs struct {
	gets, getMisses          obs.Counter
	puts, inserts, updates   obs.Counter
	deletes, deleteMisses    obs.Counter
	scans, scanRecords       obs.Counter
	putBatches, batchRecords obs.Counter

	// seqRetries counts inconclusive optimistic read attempts;
	// lockedFallbacks counts reads that exhausted optimisticAttempts and
	// took the shard read lock. Both stay zero on the clean lock-free hit.
	seqRetries, lockedFallbacks obs.Counter

	// dirPublish counts directory publications: every shard creation or
	// removal, and every table recovery stores.
	dirPublish obs.Counter

	// timing gates the operation histograms below; pmem's persist/sync
	// histograms have their own gate, flipped together by EnableMetrics.
	// The hot ops (Get/Put) additionally sample one timed call in
	// 2^obs.SampleShift through sample, so the enabled overhead stays
	// inside the budget even where a clock read costs ~100 ns; rare or
	// long ops (Delete, Scan, PutBatch) are timed unsampled.
	timing obs.Gate
	sample obs.Sampler

	getH, putH, deleteH, scanH, batchH obs.Histogram

	events obs.EventRing
}

// EnableMetrics turns latency histogram collection on or off. Counters
// and the event ring are always active; only the clock reads around
// Get/Put/Delete/Scan/PutBatch and the arena's Persist/Sync are gated.
// Off by default: the disabled read path stays allocation-free and
// within noise of an uninstrumented build.
func (h *HART) EnableMetrics(on bool) {
	h.obs.timing.Set(on)
	h.arena.EnableTiming(on)
}

// Events returns the retained tail of the structured event ring, oldest
// first (at most obs.RingSize events).
func (h *HART) Events() []obs.Event { return h.obs.events.Snapshot() }

// Metrics assembles one observability snapshot across every layer:
// operation and read-path counters from core, chunk/steal/ulog counters
// from the allocator, persist and device counters from the arena,
// directory counters, the gated latency histograms (present only when
// they have samples) and the retained event tail. The snapshot is
// internally consistent per counter (each is one atomic sum) but not a
// global linearization point — counters advance independently while it
// is taken, like any scrape.
func (h *HART) Metrics() obs.Snapshot {
	am := h.alloc.Metrics()
	ar := h.arena.Stats()

	c := map[string]uint64{
		"ops.get":               h.obs.gets.Value(),
		"ops.get_miss":          h.obs.getMisses.Value(),
		"ops.put":               h.obs.puts.Value(),
		"ops.insert":            h.obs.inserts.Value(),
		"ops.update":            h.obs.updates.Value(),
		"ops.delete":            h.obs.deletes.Value(),
		"ops.delete_miss":       h.obs.deleteMisses.Value(),
		"ops.scan":              h.obs.scans.Value(),
		"ops.scan_records":      h.obs.scanRecords.Value(),
		"ops.put_batch":         h.obs.putBatches.Value(),
		"ops.put_batch_records": h.obs.batchRecords.Value(),

		"read.seq_retries":      h.obs.seqRetries.Value(),
		"read.locked_fallbacks": h.obs.lockedFallbacks.Value(),

		"dir.republish": h.obs.dirPublish.Value(),
		"dir.entries":   uint64(h.dir.Load().Len()),

		"alloc.chunk_reuses": am.ChunkReuses.Value(),
		"alloc.steals":       am.Steals.Value(),
		"alloc.fresh_chunks": am.FreshChunks.Value(),
		"alloc.recycles":     am.Recycles.Value(),
		"alloc.ulog_claims":  am.ULogClaims.Value(),

		"pm.persists":        uint64(ar.Persists),
		"pm.persisted_lines": uint64(ar.PersistedLines),
		"pm.reads":           uint64(ar.Reads),
		"pm.writes":          uint64(ar.Writes),
		"pm.bytes_written":   uint64(ar.BytesWritten),
		"pm.syncs":           uint64(ar.Syncs),
	}

	hists := map[string]obs.HistVal{}
	addHist := func(name string, s obs.HistSnapshot) {
		if s.Count > 0 {
			hists[name] = s.Summary()
		}
	}
	addHist("ops.get", h.obs.getH.Snapshot())
	addHist("ops.put", h.obs.putH.Snapshot())
	addHist("ops.delete", h.obs.deleteH.Snapshot())
	addHist("ops.scan", h.obs.scanH.Snapshot())
	addHist("ops.put_batch", h.obs.batchH.Snapshot())
	persistS, syncS := h.arena.TimingSnapshots()
	addHist("pm.persist", persistS)
	addHist("pm.sync", syncS)

	return obs.Snapshot{Counters: c, Hists: hists, Events: h.obs.events.Snapshot()}
}

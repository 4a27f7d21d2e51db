package modelcheck

import (
	"errors"
	"fmt"
	"math/rand"
	"os"

	"github.com/casl-sdsu/hart/internal/core"
	"github.com/casl-sdsu/hart/internal/pmem"
)

// Config tunes one checker run.
type Config struct {
	// ArenaSize is the simulated PM capacity (default 4 MiB — small, so
	// histories stay cheap to replay hundreds of times).
	ArenaSize int64
	// RecoveryWorkers parallelises the store's recovery, so the sweep
	// covers the fanned-out scan and build (recovery's persist sequence
	// is deterministic at any worker count — exactly what this checks).
	RecoveryWorkers int
	// LazyRecovery selects the store's lazy per-shard rebuild, so the
	// sweep covers serving and re-crashing from a partially built
	// directory (verifyRecovered's dump drains the pending shards).
	LazyRecovery bool
	// ReentrantRecovery additionally sweeps every persist boundary of
	// recovery itself at every crash point (assertion (c)).
	ReentrantRecovery bool
	// FileReattach additionally routes every crash image through the file
	// backend: the durable bytes are written to a file, reopened via
	// pmem.OpenFileArena and recovered from there, asserting the durable
	// medium is interchangeable — what a crash image recovers to cannot
	// depend on whether it sits in memory or on disk.
	FileReattach bool
	// FileReattachDir is the directory for FileReattach's scratch files
	// (default: the system temp dir). Tests pass t.TempDir().
	FileReattachDir string
	// MaxRecoveryPersists bounds the re-entrant sweep per crash point; a
	// recovery that persists more than this fails the run (runaway
	// recovery). Default 256.
	MaxRecoveryPersists int
}

func (c Config) withDefaults() Config {
	if c.ArenaSize == 0 {
		c.ArenaSize = 4 << 20
	}
	if c.MaxRecoveryPersists == 0 {
		c.MaxRecoveryPersists = 256
	}
	return c
}

func (c Config) options() core.Options {
	return core.Options{
		ArenaSize:       c.ArenaSize,
		Tracking:        true,
		RecoveryWorkers: c.RecoveryWorkers,
		LazyRecovery:    c.LazyRecovery,
	}
}

// RunSeed generates a history from seed and checks it.
func RunSeed(seed int64, nops int, cfg Config) error {
	hist := Generate(rand.New(rand.NewSource(seed)), nops)
	if err := RunHistory(hist, cfg); err != nil {
		return fmt.Errorf("seed %d: %w", seed, err)
	}
	return nil
}

// RunHistory executes the full check for one history: the live
// differential pass, then the crash sweep over every persist boundary.
func RunHistory(hist History, cfg Config) error {
	cfg = cfg.withDefaults()
	states, cum, base, err := differentialRun(hist, cfg)
	if err != nil {
		return err
	}
	if len(cum) == 0 || cum[len(cum)-1] == base {
		return nil // history persisted nothing; no boundaries to sweep
	}
	total := cum[len(cum)-1]
	for b := base; b < total; b++ {
		if err := checkBoundary(hist, cfg, states, cum, base, b); err != nil {
			return err
		}
	}
	return nil
}

// differentialRun executes the history once, op by op, against both the
// store and the model, verifying results, point lookups, full contents
// and both scan directions after every op. It returns the model states
// (states[i] = model after the first i ops), the cumulative arena
// persist count after each op, and the post-construction baseline.
func differentialRun(hist History, cfg Config) ([]model, []int64, int64, error) {
	h, err := core.New(cfg.options())
	if err != nil {
		return nil, nil, 0, err
	}
	base := h.Arena().Persists()
	states := []model{{}}
	cum := make([]int64, len(hist.Ops))
	keys := keyUniverseOf(hist)
	for i, op := range hist.Ops {
		m := states[len(states)-1]
		if err := applyChecked(h, m, op); err != nil {
			return nil, nil, 0, fmt.Errorf("op %d %s: %w", i, op, err)
		}
		nm := m.clone()
		nm.apply(op)
		states = append(states, nm)
		cum[i] = h.Arena().Persists()

		if dump := dumpStore(h); !nm.equal(dump) {
			return nil, nil, 0, fmt.Errorf("op %d %s: store diverged from model: %s", i, op, nm.diff(dump))
		}
		// Scan reads a record under the shard lock; Get is the lock-free
		// path, which learns a value's place and length from the tree.
		for _, k := range keys {
			got, ok := h.Get(k)
			if want, live := nm[string(k)]; ok != live || string(got) != want {
				return nil, nil, 0, fmt.Errorf("op %d %s: Get(%q) = (%q, %v), model (%q, %v)", i, op, k, got, ok, want, live)
			}
		}
		if h.Len() != len(nm) {
			return nil, nil, 0, fmt.Errorf("op %d %s: Len %d, model %d", i, op, h.Len(), len(nm))
		}
	}
	if err := h.Check(); err != nil {
		return nil, nil, 0, fmt.Errorf("fsck after history: %w", err)
	}
	return states, cum, base, nil
}

// keyUniverseOf lists every key a history writes or deletes, once each.
func keyUniverseOf(hist History) [][]byte {
	seen := map[string]bool{}
	var keys [][]byte
	add := func(k []byte) {
		if !seen[string(k)] {
			seen[string(k)] = true
			keys = append(keys, k)
		}
	}
	for _, op := range hist.Ops {
		switch op.Kind {
		case OpPut, OpDelete:
			add(op.Key)
		case OpBatch:
			for _, r := range op.Batch {
				add(r.Key)
			}
		}
	}
	return keys
}

// applyChecked runs one op on the store, validating its result against
// the model (which still holds the pre-op state).
func applyChecked(h *core.HART, m model, op Op) error {
	switch op.Kind {
	case OpPut:
		return h.Put(op.Key, op.Value)
	case OpDelete:
		_, exists := m[string(op.Key)]
		err := h.Delete(op.Key)
		if exists && err != nil {
			return fmt.Errorf("delete of live key: %w", err)
		}
		if !exists && !errors.Is(err, core.ErrNotFound) {
			return fmt.Errorf("delete of missing key = %v, want ErrNotFound", err)
		}
	case OpBatch:
		n, err := h.PutBatch(op.Batch)
		if err != nil {
			return err
		}
		if n != len(op.Batch) {
			return fmt.Errorf("batch applied %d of %d", n, len(op.Batch))
		}
	case OpScan, OpScanReverse:
		want := m.scan(op.Start, op.End)
		var got []core.Record
		visit := func(k, v []byte) bool {
			got = append(got, core.Record{
				Key:   append([]byte(nil), k...),
				Value: append([]byte(nil), v...),
			})
			return true
		}
		if op.Kind == OpScan {
			h.Scan(op.Start, op.End, visit)
		} else {
			h.ScanReverse(op.Start, op.End, visit)
			for l, r := 0, len(got)-1; l < r; l, r = l+1, r-1 {
				got[l], got[r] = got[r], got[l]
			}
		}
		if len(got) != len(want) {
			return fmt.Errorf("scan returned %d records, model %d", len(got), len(want))
		}
		for i := range want {
			if string(got[i].Key) != string(want[i].Key) || string(got[i].Value) != string(want[i].Value) {
				return fmt.Errorf("scan record %d = (%q,%q), model (%q,%q)",
					i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
			}
		}
	}
	return nil
}

// applyQuiet replays one op ignoring its result (replays only care about
// the persist sequence; results were validated by the differential pass).
func applyQuiet(h *core.HART, op Op) {
	switch op.Kind {
	case OpPut:
		_ = h.Put(op.Key, op.Value)
	case OpDelete:
		_ = h.Delete(op.Key)
	case OpBatch:
		_, _ = h.PutBatch(op.Batch)
	case OpScan:
		h.Scan(op.Start, op.End, func(_, _ []byte) bool { return true })
	case OpScanReverse:
		h.ScanReverse(op.Start, op.End, func(_, _ []byte) bool { return true })
	}
}

// dumpStore materialises the store's full contents via an unbounded
// ascending scan.
func dumpStore(h *core.HART) model {
	dump := model{}
	h.Scan(nil, nil, func(k, v []byte) bool {
		dump[string(k)] = string(v)
		return true
	})
	return dump
}

// crashError extracts an injected-crash panic, repanicking on anything
// else (a genuine bug must not be swallowed as a crash point).
func crashError(r any) pmem.CrashError {
	if r == nil {
		return pmem.CrashError{Persists: -1}
	}
	if ce, ok := r.(pmem.CrashError); ok {
		return ce
	}
	panic(r)
}

// checkBoundary replays the history with a crash injected at absolute
// persist index b, recovers the durable image and asserts atomicity,
// fsck cleanliness, and (optionally) re-entrant recovery.
func checkBoundary(hist History, cfg Config, states []model, cum []int64, base, b int64) error {
	h, err := core.New(cfg.options())
	if err != nil {
		return err
	}
	ar := h.Arena()
	if got := ar.Persists(); got != base {
		return fmt.Errorf("boundary %d: store construction persisted %d times, first run %d — replay is nondeterministic", b, got, base)
	}
	// FailAfterPersists counts from the current (== base) persist count,
	// so the absolute boundary index b arms as b-base.
	ar.FailAfterPersists(b - base)

	opIdx := -1
	crashed := false
	var site string
	func() {
		defer func() {
			if r := recover(); r != nil {
				ce := crashError(r)
				crashed = true
				site = ce.Site
			}
		}()
		for i, op := range hist.Ops {
			opIdx = i
			applyQuiet(h, op)
		}
	}()
	if !crashed {
		return fmt.Errorf("boundary %d: replay completed without crashing (history persisted %d..%d on first run) — replay is nondeterministic", b, base, cum[len(cum)-1])
	}
	k := opIdx
	lo := base
	if k > 0 {
		lo = cum[k-1]
	}
	if b < lo || b >= cum[k] {
		return fmt.Errorf("boundary %d: crash landed in op %d (persists %d..%d) — persist sequence differs from first run", b, k, lo, cum[k])
	}
	candidates := legalStates(states[k], hist.Ops[k])

	img, err := ar.Crash(pmem.Config{Tracking: true}, pmem.CrashOptions{})
	if err != nil {
		return fmt.Errorf("boundary %d: crash image: %w", b, err)
	}
	where := fmt.Sprintf("boundary %d (site %s, during op %d %s)", b, site, k, hist.Ops[k])
	if err := verifyRecovered(img, cfg, candidates, where); err != nil {
		return err
	}

	if !cfg.ReentrantRecovery && !cfg.FileReattach {
		return nil
	}
	imgBytes, err := ar.DurableImage()
	if err != nil {
		return fmt.Errorf("boundary %d: durable image: %w", b, err)
	}
	if cfg.FileReattach {
		if err := verifyFileReattach(imgBytes, cfg, candidates, where); err != nil {
			return err
		}
	}
	if !cfg.ReentrantRecovery {
		return nil
	}
	return sweepRecovery(imgBytes, cfg, candidates, b, site)
}

// verifyRecovered opens a crash image and asserts the recovered contents
// match one legal state, both scan directions agree, and fsck passes.
func verifyRecovered(img *pmem.Arena, cfg Config, candidates []model, where string) error {
	hr, err := openNoCrash(img, cfg)
	if err != nil {
		return fmt.Errorf("%s: recovery failed: %w", where, err)
	}
	dump := dumpStore(hr)
	matched := -1
	for i, cand := range candidates {
		if cand.equal(dump) {
			matched = i
			break
		}
	}
	if matched < 0 {
		return fmt.Errorf("%s: recovered state matches no legal state; vs pre-op state: %s",
			where, candidates[0].diff(dump))
	}
	rev := model{}
	hr.ScanReverse(nil, nil, func(k, v []byte) bool {
		rev[string(k)] = string(v)
		return true
	})
	if !dump.equal(rev) {
		return fmt.Errorf("%s: ScanReverse disagrees with Scan after recovery", where)
	}
	if hr.Len() != len(dump) {
		return fmt.Errorf("%s: recovered Len %d but %d records scanned", where, hr.Len(), len(dump))
	}
	if err := hr.Check(); err != nil {
		return fmt.Errorf("%s: fsck after recovery: %w", where, err)
	}
	return nil
}

// verifyFileReattach writes a crash image's durable bytes to a scratch
// file, reopens it through the file backend and asserts the recovered
// contents match one legal state — the same assertion verifyRecovered
// makes for the in-memory attach, proving the media interchangeable.
func verifyFileReattach(imgBytes []byte, cfg Config, candidates []model, where string) error {
	f, err := os.CreateTemp(cfg.FileReattachDir, "modelcheck-*.hart")
	if err != nil {
		return fmt.Errorf("%s: file reattach: %w", where, err)
	}
	path := f.Name()
	defer os.Remove(path)
	_, werr := f.Write(imgBytes)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("%s: file reattach: write %s: %w", where, path, werr)
	}
	arena, fresh, err := pmem.OpenFileArena(path, pmem.Config{})
	if err != nil {
		return fmt.Errorf("%s: file reattach: %w", where, err)
	}
	if fresh {
		arena.Close()
		return fmt.Errorf("%s: file reattach: image file read back as fresh", where)
	}
	hr, err := core.Open(arena, cfg.options())
	if err != nil {
		arena.Close()
		return fmt.Errorf("%s: file reattach: recovery failed: %w", where, err)
	}
	dump := dumpStore(hr)
	matched := false
	for _, cand := range candidates {
		if cand.equal(dump) {
			matched = true
			break
		}
	}
	if !matched {
		return fmt.Errorf("%s: file reattach: recovered state matches no legal state; vs pre-op state: %s",
			where, candidates[0].diff(dump))
	}
	if err := hr.Check(); err != nil {
		return fmt.Errorf("%s: file reattach: fsck: %w", where, err)
	}
	return hr.Close()
}

// openNoCrash opens a store, converting an (unexpected) injected-crash
// panic into an error.
func openNoCrash(img *pmem.Arena, cfg Config) (h *core.HART, err error) {
	defer func() {
		if r := recover(); r != nil {
			ce := crashError(r)
			err = fmt.Errorf("unexpected injected crash at persist %d (site %s)", ce.Persists, ce.Site)
		}
	}()
	return core.Open(img, cfg.options())
}

// sweepRecovery re-runs recovery from the same crash image with a second
// crash injected at every persist boundary of recovery itself, asserting
// that recovering from *that* crash still lands in a legal state. The
// sweep walks r upward until a recovery attempt completes without
// hitting the injection, which bounds it by recovery's persist count.
func sweepRecovery(imgBytes []byte, cfg Config, candidates []model, b int64, site string) error {
	for r := 0; ; r++ {
		if r > cfg.MaxRecoveryPersists {
			return fmt.Errorf("boundary %d: recovery persisted more than %d times", b, cfg.MaxRecoveryPersists)
		}
		ar, err := pmem.Attach(append([]byte(nil), imgBytes...), pmem.Config{Tracking: true})
		if err != nil {
			return fmt.Errorf("boundary %d: attach: %w", b, err)
		}
		ar.FailAfterPersists(int64(r))

		crashed := false
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					crashError(rec)
					crashed = true
				}
			}()
			_, err = core.Open(ar, cfg.options())
		}()
		if !crashed {
			if err != nil {
				return fmt.Errorf("boundary %d, recovery boundary %d: open: %w", b, r, err)
			}
			return nil // recovery completed before the injection: sweep done
		}
		img2, cerr := ar.Crash(pmem.Config{Tracking: true}, pmem.CrashOptions{})
		if cerr != nil {
			return fmt.Errorf("boundary %d, recovery boundary %d: crash image: %w", b, r, cerr)
		}
		if err := verifyRecovered(img2, cfg, candidates,
			fmt.Sprintf("boundary %d (site %s) + recovery crash at %d", b, site, r)); err != nil {
			return err
		}
	}
}

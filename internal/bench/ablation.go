package bench

import (
	"fmt"
	"time"

	"github.com/casl-sdsu/hart/internal/core"
	"github.com/casl-sdsu/hart/internal/latency"
	"github.com/casl-sdsu/hart/internal/workload"
)

// Ablations probe the design choices the paper fixes by fiat, quantifying
// each knob the way Section III argues for it.

// RunAblationKH sweeps the hash-key length kh (the paper sets kh = 2 and
// argues the overall complexity is k - kh + 1 while collisions stay low).
// kh = 0 is approximated by kh = 1 over a single-byte space; larger kh
// trades ART depth for hash-directory width and DRAM. The sweep stops at
// hashdir.MaxKeyLen = 3: at kh = 4 the directory would need a page per
// shard.
func RunAblationKH(c Config) (Report, error) {
	c = c.WithDefaults()
	lat := latency.Config300x300()
	lat.Mode = c.Mode
	keys := workload.Random(c.Records, c.Seed)
	probe := shuffled(keys, c.Seed+13)
	val := workload.Values(1, c.ValueSize, c.Seed+29)[0]
	var report Report
	for _, kh := range []int{1, 2, 3} {
		h, err := core.New(core.Options{
			HashKeyLen: kh,
			ArenaSize:  arenaSize("HART", c.Records+1),
			Latency:    lat,
			CacheModel: lat.ReadDeltaNs() > 0,
		})
		if err != nil {
			return nil, err
		}
		dIns := measureHART(h, c.Mode, func() error {
			for _, k := range keys {
				if err := h.Put(k, val); err != nil {
					return err
				}
			}
			return nil
		}, &err)
		if err != nil {
			return nil, err
		}
		dGet := measureHART(h, c.Mode, func() error {
			for _, k := range probe {
				if _, ok := h.Get(k); !ok {
					return fmt.Errorf("kh=%d lost key %q", kh, k)
				}
			}
			return nil
		}, &err)
		if err != nil {
			return nil, err
		}
		st := h.Stats()
		h.Close()
		n := float64(len(keys))
		report = append(report,
			Row{Figure: "A1", Workload: fmt.Sprintf("kh=%d (%d ARTs)", kh, st.ARTs),
				Latency: lat.Name(), Tree: "HART", Op: "insert", Records: len(keys),
				Threads: 1, NsPerOp: float64(dIns.Nanoseconds()) / n},
			Row{Figure: "A1", Workload: fmt.Sprintf("kh=%d (%d ARTs)", kh, st.ARTs),
				Latency: lat.Name(), Tree: "HART", Op: "search", Records: len(keys),
				Threads: 1, NsPerOp: float64(dGet.Nanoseconds()) / n},
		)
		fmt.Fprintf(c.Out, "ablation kh=%d: %6d ARTs, insert %8.3f us/op, search %8.3f us/op, DRAM %.1f MB\n",
			kh, st.ARTs, float64(dIns.Nanoseconds())/n/1000, float64(dGet.Nanoseconds())/n/1000,
			float64(st.Size.DRAMBytes)/(1<<20))
	}
	return report, nil
}

// measureHART mirrors measure for the concrete HART type.
func measureHART(h *core.HART, mode latency.Mode, fn func() error, errOut *error) time.Duration {
	clock := h.Arena().Clock()
	before := clock.PenaltyNs()
	start := time.Now()
	*errOut = fn()
	d := time.Since(start)
	if mode == latency.ModeAccount {
		d += time.Duration(clock.PenaltyNs() - before)
	}
	return d
}

// RunAblationScan compares the paper's per-key range query against HART's
// native ordered scan across range sizes — quantifying what the hash
// split actually costs for ranges (Section IV.D's "very limited").
func RunAblationScan(c Config) (Report, error) {
	c = c.WithDefaults()
	lat := latency.Config300x300()
	keys := workload.Sequential(c.Records)
	var report Report
	ix, err := NewIndex("HART", lat, c.Mode, c.Records+1)
	if err != nil {
		return nil, err
	}
	if err := preload(c, ix, keys); err != nil {
		return nil, err
	}
	for _, span := range []int{100, 1000, 10000, min(100000, c.Records)} {
		if span > len(keys) {
			break
		}
		start, end := keys[0], keys[span-1]
		var got int
		dPerKey := measure(ix, c.Mode, func() {
			got = 0
			for _, k := range keys[:span] {
				if _, ok := ix.Get(k); ok {
					got++
				}
			}
		})
		if got != span {
			return nil, fmt.Errorf("ablation scan: per-key got %d/%d", got, span)
		}
		dScan := measure(ix, c.Mode, func() {
			got = 0
			ix.Scan(start, append(end, 0), func(k, v []byte) bool { got++; return true })
		})
		if got != span {
			return nil, fmt.Errorf("ablation scan: native got %d/%d", got, span)
		}
		report = append(report,
			Row{Figure: "A2", Workload: fmt.Sprintf("span=%d", span), Latency: lat.Name(),
				Tree: "HART", Op: "per-key", Records: span, Threads: 1,
				NsPerOp: float64(dPerKey.Nanoseconds()) / float64(span)},
			Row{Figure: "A2", Workload: fmt.Sprintf("span=%d", span), Latency: lat.Name(),
				Tree: "HART", Op: "native-scan", Records: span, Threads: 1,
				NsPerOp: float64(dScan.Nanoseconds()) / float64(span)},
		)
		fmt.Fprintf(c.Out, "ablation scan span=%-7d per-key %8.3f us/rec, native %8.3f us/rec (%.1fx)\n",
			span, float64(dPerKey.Nanoseconds())/float64(span)/1000,
			float64(dScan.Nanoseconds())/float64(span)/1000,
			float64(dPerKey.Nanoseconds())/float64(dScan.Nanoseconds()))
	}
	ix.Close()
	return report, nil
}

// RunAblationValueSize compares the paper's two value sizes (Section
// III.A.5), insert and update: 8 bytes, which HART stores in the leaf, and
// 16, which it stores in a value object.
func RunAblationValueSize(c Config) (Report, error) {
	c = c.WithDefaults()
	lat := latency.Config300x300()
	keys := workload.Random(c.Records, c.Seed)
	var report Report
	for _, vs := range []int{8, 16} {
		ix, err := NewIndex("HART", lat, c.Mode, c.Records+1)
		if err != nil {
			return nil, err
		}
		val := workload.Values(1, vs, c.Seed+31)[0]
		var opErr error
		dIns := measure(ix, c.Mode, func() {
			for _, k := range keys {
				if opErr = ix.Put(k, val); opErr != nil {
					return
				}
			}
		})
		if opErr != nil {
			return nil, opErr
		}
		dUpd := measure(ix, c.Mode, func() {
			for _, k := range keys {
				if opErr = ix.Update(k, val); opErr != nil {
					return
				}
			}
		})
		if opErr != nil {
			return nil, opErr
		}
		si := ix.SizeInfo()
		ix.Close()
		n := float64(len(keys))
		report = append(report,
			Row{Figure: "A3", Workload: fmt.Sprintf("value=%dB", vs), Latency: lat.Name(),
				Tree: "HART", Op: "insert", Records: len(keys), Threads: 1,
				NsPerOp: float64(dIns.Nanoseconds()) / n},
			Row{Figure: "A3", Workload: fmt.Sprintf("value=%dB", vs), Latency: lat.Name(),
				Tree: "HART", Op: "update", Records: len(keys), Threads: 1,
				NsPerOp: float64(dUpd.Nanoseconds()) / n},
		)
		fmt.Fprintf(c.Out, "ablation value=%2dB: insert %8.3f us/op, update %8.3f us/op, PM %.1f MB\n",
			vs, float64(dIns.Nanoseconds())/n/1000, float64(dUpd.Nanoseconds())/n/1000,
			float64(si.PMBytes)/(1<<20))
	}
	return report, nil
}

// RunAblationDistribution extends Fig. 9 beyond the paper: the same mixes
// under a Zipfian request distribution, which concentrates updates on hot
// ARTs and stresses the per-ART write lock.
func RunAblationDistribution(c Config) (Report, error) {
	c = c.WithDefaults()
	lat := latency.Config300x300()
	pre := workload.Random(c.Records, c.Seed)
	fresh := workload.Random(c.Records+c.MixedOps, c.Seed+101)[c.Records:]
	var report Report
	for _, dist := range []workload.Distribution{workload.Uniform(), workload.Zipfian(1.1)} {
		mix := workload.ReadModifiedWrite()
		ops := mix.GenerateDist(c.MixedOps, pre, fresh, c.ValueSize, c.Seed+3, dist)
		ix, err := NewIndex("HART", lat, c.Mode, c.Records+c.MixedOps+1)
		if err != nil {
			return nil, err
		}
		if err := preload(c, ix, pre); err != nil {
			return nil, err
		}
		var opErr error
		d := measure(ix, c.Mode, func() {
			for _, op := range ops {
				switch op.Kind {
				case workload.OpInsert:
					opErr = ix.Put(op.Key, op.Value)
				case workload.OpSearch:
					ix.Get(op.Key)
				case workload.OpUpdate:
					opErr = ix.Update(op.Key, op.Value)
				case workload.OpDelete:
					opErr = ix.Delete(op.Key)
				}
				if opErr != nil {
					return
				}
			}
		})
		if opErr != nil {
			return nil, opErr
		}
		ix.Close()
		report = append(report, Row{
			Figure: "A4", Workload: mix.Name + "/" + dist.Name, Latency: lat.Name(),
			Tree: "HART", Op: "mixed", Records: len(ops), Threads: 1,
			NsPerOp: float64(d.Nanoseconds()) / float64(len(ops)),
		})
		fmt.Fprintf(c.Out, "ablation dist=%-10s %8.3f us/op\n",
			dist.Name, float64(d.Nanoseconds())/float64(len(ops))/1000)
	}
	return report, nil
}

// RunAblationUpdateLog compares HART's two update mechanisms: the full
// Algorithm 3 micro-log (immediately leak-free) against the unlogged
// pointer swing the paper's evaluation measured (Section IV.B; leak
// window bounded by the recovery orphan sweep).
func RunAblationUpdateLog(c Config) (Report, error) {
	c = c.WithDefaults()
	lat := latency.Config300x300()
	lat.Mode = c.Mode
	keys := workload.Random(c.Records, c.Seed)
	probe := shuffled(keys, c.Seed+13)
	val := workload.Values(1, c.ValueSize, c.Seed+29)[0]
	var report Report
	for _, unlogged := range []bool{false, true} {
		h, err := core.New(core.Options{
			ArenaSize:       arenaSize("HART", c.Records+1),
			Latency:         lat,
			CacheModel:      lat.ReadDeltaNs() > 0,
			UnloggedUpdates: unlogged,
		})
		if err != nil {
			return nil, err
		}
		for _, k := range keys {
			if err := h.Put(k, val); err != nil {
				return nil, err
			}
		}
		persistsBefore := h.Arena().Persists()
		d := measureHART(h, c.Mode, func() error {
			for _, k := range probe {
				if err := h.Update(k, val); err != nil {
					return err
				}
			}
			return nil
		}, &err)
		if err != nil {
			return nil, err
		}
		perOp := float64(h.Arena().Persists()-persistsBefore) / float64(len(probe))
		h.Close()
		name := "Algorithm-3 log"
		if unlogged {
			name = "unlogged (paper IV.B)"
		}
		report = append(report, Row{
			Figure: "A5", Workload: name, Latency: lat.Name(), Tree: "HART",
			Op: "update", Records: len(probe), Threads: 1,
			NsPerOp: float64(d.Nanoseconds()) / float64(len(probe)),
		})
		fmt.Fprintf(c.Out, "ablation update-log %-22s %8.3f us/op (%.1f persists/op)\n",
			name, float64(d.Nanoseconds())/float64(len(probe))/1000, perOp)
	}
	return report, nil
}

// RunAblations executes every ablation.
func RunAblations(c Config) (Report, error) {
	var all Report
	for _, fn := range []func(Config) (Report, error){
		RunAblationKH, RunAblationScan, RunAblationValueSize, RunAblationDistribution,
		RunAblationUpdateLog,
	} {
		rep, err := fn(c)
		if err != nil {
			return nil, err
		}
		all = append(all, rep...)
	}
	return all, nil
}

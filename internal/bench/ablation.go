package bench

import (
	"fmt"

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
		dIns, err := timeOp(h, "insert", keys, val, 1)
		if err != nil {
			return nil, err
		}
		dGet, err := timeOp(h, "search-into", probe, nil, 1)
		if err != nil {
			return nil, fmt.Errorf("kh=%d: %w", kh, err)
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

// RunAblationScan compares the paper's per-key range query against HART's
// native ordered scan across range sizes — quantifying what the hash
// split actually costs for ranges (Section IV.D's "very limited").
func RunAblationScan(c Config) (Report, error) {
	c = c.WithDefaults()
	lat := latency.Config300x300()
	keys := workload.Sequential(c.Records)
	var report Report
	ix, err := NewIndex("HART", lat, c.Records+1)
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
		dPerKey, err := timeOp(ix, "search", keys[:span], nil, 1)
		if err != nil {
			return nil, fmt.Errorf("ablation scan: per-key: %w", err)
		}
		dScan, got := timeScan(ix, keys[0], keys[span-1])
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
		ix, err := NewIndex("HART", lat, c.Records+1)
		if err != nil {
			return nil, err
		}
		val := workload.Values(1, vs, c.Seed+31)[0]
		dIns, err := timeOp(ix, "insert", keys, val, 1)
		if err != nil {
			return nil, err
		}
		dUpd, err := timeOp(ix, "update", keys, val, 1)
		if err != nil {
			return nil, err
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

// RunAblations executes every ablation. Fig. 9's mixes under skew are
// `hartbench -fig 9 -dist zipf`.
func RunAblations(c Config) (Report, error) {
	var all Report
	for _, fn := range []func(Config) (Report, error){
		RunAblationKH, RunAblationScan, RunAblationValueSize,
	} {
		rep, err := fn(c)
		if err != nil {
			return nil, err
		}
		all = append(all, rep...)
	}
	return all, nil
}

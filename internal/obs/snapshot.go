package obs

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// HistVal is one histogram's exposition summary (JSON-ready; the _ns
// suffixes document the store's convention of recording nanoseconds).
type HistVal struct {
	Count  uint64  `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  uint64  `json:"p50_ns"`
	P95Ns  uint64  `json:"p95_ns"`
	P99Ns  uint64  `json:"p99_ns"`
	MaxNs  uint64  `json:"max_ns"`
}

// Snapshot is a point-in-time metrics view: named counter totals, named
// histogram summaries and the event-ring contents. It is the one shape
// every consumer shares — hart.Metrics(), the benchmark's per-layer
// ledger, WriteProm and the expvar export all carry it.
type Snapshot struct {
	Counters map[string]uint64  `json:"counters"`
	Hists    map[string]HistVal `json:"hists,omitempty"`
	Events   []Event            `json:"events,omitempty"`
}

// promName maps a dotted instrument name to a Prometheus metric name.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("hart_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WriteProm renders the snapshot in the Prometheus text exposition
// format: counters as `hart_<name>`, histograms as summaries
// (`hart_<name>_ns{quantile="..."}` plus `_count`, `_sum` via mean·count
// is avoided — the true sum is not in HistVal, so sum is omitted — and
// `_max` as a gauge). Names are emitted in sorted order so scrapes diff
// cleanly.
func WriteProm(w io.Writer, s Snapshot) error {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p := promName(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", p, p, s.Counters[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Hists {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Hists[n]
		p := promName(n) + "_ns"
		if _, err := fmt.Fprintf(w,
			"# TYPE %s summary\n%s{quantile=\"0.5\"} %d\n%s{quantile=\"0.95\"} %d\n%s{quantile=\"0.99\"} %d\n%s_count %d\n# TYPE %s_max gauge\n%s_max %d\n",
			p, p, h.P50Ns, p, h.P95Ns, p, h.P99Ns, p, h.Count, p, p, h.MaxNs); err != nil {
			return err
		}
	}
	return nil
}

// Handler returns an http.Handler serving fn's snapshot as Prometheus
// text — mount it at /metrics.
func Handler(fn func() Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = WriteProm(w, fn())
	})
}

// expvar.Publish panics on duplicate names; published guards re-publication
// when several stores come and go in one process (tests, hartbench runs).
var (
	expvarMu  sync.Mutex
	published = map[string]bool{}
)

// PublishExpvar exports fn's snapshot under the given expvar name
// (served at /debug/vars by expvar.Handler). Re-publishing the same name
// replaces the function; the JSON value is the Snapshot itself.
func PublishExpvar(name string, fn func() Snapshot) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if published[name] {
		// expvar keeps the first registration; swap the target through an
		// indirection we own.
		expvarFns.Lock()
		expvarFns.m[name] = fn
		expvarFns.Unlock()
		return
	}
	published[name] = true
	expvarFns.Lock()
	if expvarFns.m == nil {
		expvarFns.m = map[string]func() Snapshot{}
	}
	expvarFns.m[name] = fn
	expvarFns.Unlock()
	expvar.Publish(name, expvar.Func(func() any {
		expvarFns.Lock()
		f := expvarFns.m[name]
		expvarFns.Unlock()
		if f == nil {
			return Snapshot{}
		}
		return f()
	}))
}

var expvarFns struct {
	sync.Mutex
	m map[string]func() Snapshot
}

// Serve starts an HTTP listener exposing fn's snapshot: Prometheus text
// at /metrics and the process expvars (including any PublishExpvar
// names) at /debug/vars. It returns the server so callers can Close it;
// errors from the background listener are reported through errFn (nil to
// ignore). This is the one-call backend of the cmds' -metrics-addr flag.
func Serve(addr, expvarName string, fn func() Snapshot, errFn func(error)) *http.Server {
	PublishExpvar(expvarName, fn)
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(fn))
	mux.Handle("/debug/vars", expvar.Handler())
	srv := &http.Server{Addr: addr, Handler: mux}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed && errFn != nil {
			errFn(err)
		}
	}()
	return srv
}

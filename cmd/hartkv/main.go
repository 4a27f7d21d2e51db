// Command hartkv is an interactive key-value shell over a HART index.
//
// With -db the store is a file-backed persistent memory arena opened
// through hart.Open: the file is mapped shared, every completed put or
// delete is durable against a process crash with no save step, and each
// start re-attaches and runs HART's recovery (Algorithm 7). "sync"
// flushes the mapping for machine-crash durability and "quit" closes the
// store cleanly; so does a SIGINT (Ctrl-C) or SIGTERM, which syncs and
// closes the store before exiting rather than abandoning a dirty
// image. A -db file that exists but cannot be attached — torn,
// truncated, not a HART store, or created with different geometry — is
// refused outright; hartkv never falls back to an empty store over a
// path that holds data.
//
// Usage:
//
//	hartkv -db /tmp/store.pm
//
//	> put greeting hello
//	> get greeting
//	hello
//	> scan a z
//	> stats
//	> check
//	> sync
//	> quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	hart "github.com/casl-sdsu/hart"
	"github.com/casl-sdsu/hart/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the shell body, separated from main so the process-level tests
// can re-exec it through a helper with a scripted stdin.
func run(args []string) int {
	fs := flag.NewFlagSet("hartkv", flag.ContinueOnError)
	var (
		dbPath = fs.String("db", "", "PM image file (created if missing; empty = in-memory only)")
		size   = fs.Int64("size", 64<<20, "arena size for a fresh store")
		mAddr  = fs.String("metrics-addr", "", "serve Prometheus /metrics and expvar /debug/vars for this store (e.g. :9090)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var db *hart.DB
	var err error
	if *dbPath != "" {
		st, serr := os.Stat(*dbPath)
		existed := serr == nil && st.Size() > 0
		// Geometry is adopted from the store's superblock on re-attach;
		// ArenaSize only sizes a file created by this run.
		db, err = hart.Open(*dbPath, hart.Options{ArenaSize: *size})
		if err != nil {
			// Refuse to start rather than shadow an unreadable store with an
			// empty one: the old path fell back to hart.New here and then
			// clobbered the image on quit, losing every record in it.
			fmt.Fprintf(os.Stderr, "hartkv: cannot open %s: %v\n", *dbPath, err)
			return 1
		}
		how := "created"
		if existed {
			how = "crash image, recovered"
			if db.LastRecoveryStats().WasClean {
				how = "clean shutdown"
			}
		}
		fmt.Printf("opened %s: %d records (%s)\n", *dbPath, db.Len(), how)
	} else {
		db, err = hart.New(hart.Options{ArenaSize: *size})
		if err != nil {
			fmt.Fprintln(os.Stderr, "hartkv:", err)
			return 1
		}
	}

	// Ctrl-C (or a SIGTERM) must not strand a file-backed store dirty:
	// sync + close — the clean-shutdown flag is the last write — then
	// exit. The handler normally fires while the shell is blocked on
	// stdin, so nothing else is touching the store.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		fmt.Fprintf(os.Stderr, "\nhartkv: %s: closing store\n", sig)
		if err := db.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "hartkv: close failed:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}()

	if *mAddr != "" {
		srv := obs.Serve(*mAddr, "hart", db.Metrics, func(err error) {
			fmt.Fprintf(os.Stderr, "hartkv: metrics server: %v\n", err)
		})
		defer srv.Close()
	}

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			fmt.Print("> ")
			continue
		}
		switch cmd := fields[0]; cmd {
		case "put":
			if len(fields) != 3 {
				fmt.Println("usage: put <key> <value>   (key <= 24B, value <= 16B)")
				break
			}
			if err := db.Put([]byte(fields[1]), []byte(fields[2])); err != nil {
				fmt.Println("error:", err)
			}
		case "get":
			if len(fields) != 2 {
				fmt.Println("usage: get <key>")
				break
			}
			if v, ok := db.Get([]byte(fields[1])); ok {
				fmt.Println(string(v))
			} else {
				fmt.Println("(not found)")
			}
		case "del", "delete":
			if len(fields) != 2 {
				fmt.Println("usage: del <key>")
				break
			}
			if err := db.Delete([]byte(fields[1])); err != nil {
				fmt.Println("error:", err)
			}
		case "scan":
			var lo, hi []byte
			if len(fields) > 1 {
				lo = []byte(fields[1])
			}
			if len(fields) > 2 {
				hi = []byte(fields[2])
			}
			n := 0
			db.Scan(lo, hi, func(k, v []byte) bool {
				fmt.Printf("%s = %s\n", k, v)
				n++
				return n < 1000
			})
			fmt.Printf("(%d records)\n", n)
		case "len":
			fmt.Println(db.Len())
		case "stats":
			st := db.Stats()
			fmt.Printf("records:   %d (%d inline, %d out of line)\n",
				st.Records, st.InlineRecords, st.Records-st.InlineRecords)
			fmt.Printf("ARTs:      %d\n", st.ARTs)
			fmt.Printf("PM used:   %.2f MB (%d persists so far)\n",
				float64(st.Size.PMBytes)/(1<<20), st.Arena.Persists)
			fmt.Printf("DRAM used: %.2f MB (height %d; %d/%d/%d/%d N4/N16/N48/N256)\n",
				float64(st.Size.DRAMBytes)/(1<<20), st.ART.Height,
				st.ART.Node4s, st.ART.Node16s, st.ART.Node48s, st.ART.Node256s)
			if n := float64(st.Records); n > 0 {
				fmt.Printf("DRAM B/record: %.1f (leaves %.1f + inner nodes %.1f + directory %.1f)\n",
					float64(st.Size.DRAMBytes)/n, float64(st.ART.LeafBytes)/n,
					float64(st.ART.Bytes-st.ART.LeafBytes)/n, float64(st.Size.DRAMBytes-st.ART.Bytes)/n)
			}
			for _, cs := range st.Alloc {
				fmt.Printf("class %-8s: %d used, %d chunks (+%d free), %.2f MB PM\n",
					cs.Name, cs.Used, cs.Chunks, cs.FreeChunks, float64(cs.PMBytes)/(1<<20))
			}
			fmt.Printf("directory: %d entries, hash key %d bytes\n", st.Dir.Entries, db.Options().HashKeyLen)
			for i, hs := range st.Dir.Hot {
				if i >= 3 || hs.Ops == 0 {
					break
				}
				fmt.Printf("  hot shard %-8q: %d records, %d ops since open\n", hs.Prefix, hs.Records, hs.Ops)
			}
			m := db.Metrics()
			for _, name := range sortedNames(m.Counters) {
				fmt.Printf("  %-22s %d\n", name, m.Counters[name])
			}
			for _, name := range sortedNames(m.Hists) {
				hv := m.Hists[name]
				fmt.Printf("  %-22s n=%d mean=%.0fns p50=%dns p99=%dns max=%dns\n",
					name+" (ns)", hv.Count, hv.MeanNs, hv.P50Ns, hv.P99Ns, hv.MaxNs)
			}
			if len(m.Hists) == 0 {
				fmt.Println("  (latency histograms off — `metrics on` to enable)")
			}
		case "metrics":
			if len(fields) != 2 || (fields[1] != "on" && fields[1] != "off") {
				fmt.Println("usage: metrics on|off   (toggle latency histograms)")
				break
			}
			db.EnableMetrics(fields[1] == "on")
			fmt.Println("metrics", fields[1])
		case "events":
			for _, ev := range db.Events() {
				fmt.Printf("#%d %-18s %-10s a=%d b=%d\n", ev.Seq, ev.Kind, ev.Detail, ev.A, ev.B)
			}
		case "check":
			if err := db.Check(); err != nil {
				fmt.Println("FSCK FAILED:", err)
			} else {
				fmt.Println("ok")
			}
		case "sync", "save":
			if *dbPath == "" {
				fmt.Println("error: no -db file configured")
				break
			}
			if err := db.Sync(); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("synced", *dbPath)
			}
		case "fill":
			// fill <n> [prefix]: bulk-load synthetic records for demos.
			if len(fields) < 2 {
				fmt.Println("usage: fill <n> [prefix]")
				break
			}
			n := 0
			fmt.Sscanf(fields[1], "%d", &n)
			prefix := "k"
			if len(fields) > 2 {
				prefix = fields[2]
			}
			filled := 0
			for i := 0; i < n; i++ {
				k := fmt.Sprintf("%s%08d", prefix, i)
				if err := db.Put([]byte(k), []byte(fmt.Sprintf("%08d", i))); err != nil {
					fmt.Println("error:", err)
					break
				}
				filled++
			}
			fmt.Printf("inserted %d records\n", filled)
		case "quit", "exit":
			if err := db.Close(); err != nil {
				fmt.Println("close failed:", err)
				return 1
			}
			return 0
		case "help":
			fmt.Println("commands: put get del scan len stats metrics events check sync quit")
		default:
			fmt.Printf("unknown command %q (try help)\n", cmd)
		}
		fmt.Print("> ")
	}
	// Stdin ended without "quit" (scripted input, closed terminal):
	// close anyway so a file-backed image comes back clean.
	if err := db.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "hartkv: close failed:", err)
		return 1
	}
	return 0
}

// sortedNames returns a map's keys in sorted order for stable output.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Command hartfsck validates a saved HART PM image (as written by
// hartkv or any application using hart.DB.CrashImage): it replays
// recovery — completing interrupted update logs and rebuilding the
// volatile index — then runs the full consistency and leak check and
// prints an inventory of the persistent state.
//
// Usage:
//
//	hartfsck [-events] /tmp/store.pm
//
// Recovery runs eagerly on GOMAXPROCS workers; its persist sequence, and so
// the verdict, is the same at any worker count.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	hart "github.com/casl-sdsu/hart"
	"github.com/casl-sdsu/hart/internal/epalloc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command behind main: it checks the image named by args,
// reports to stdout and stderr, and returns the exit status (0 ok, 1 the
// image is unreadable, unrecoverable or inconsistent, 2 usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hartfsck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	events := fs.Bool("events", false, "print the recovery's event trail (open, ulog replays, phase timings)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: hartfsck [-events] <image-file>")
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "hartfsck: "+format+"\n", args...)
		return 1
	}
	path := fs.Arg(0)
	img, err := os.ReadFile(path)
	if err != nil {
		return fail("read image: %v", err)
	}
	// An image of another format version stops here, with
	// hart.ErrVersionMismatch naming both versions; it is only read.
	db, err := hart.Restore(img, hart.Options{CrashSimulation: true, RecoveryWorkers: runtime.GOMAXPROCS(0)})
	if err != nil {
		return fail("recovery: %v", err)
	}
	st := db.Stats()
	rs := db.LastRecoveryStats()
	shutdown := "unclean shutdown (crash image)"
	if rs.WasClean {
		shutdown = "clean shutdown"
	}
	fmt.Fprintf(stdout, "%s: %d records (%d inline, %d out of line) in %d ARTs, %s\n",
		path, st.Records, st.InlineRecords, st.Records-st.InlineRecords, st.ARTs, shutdown)
	// The version word as read from the image; the slot size is what that
	// version lays out (only this build's version gets this far).
	fmt.Fprintf(stdout, "  format: version %d (%d update-log slots of %d B)\n",
		rs.FormatVersion, epalloc.NumUpdateLogs, epalloc.ULogSlotSize)
	fmt.Fprintf(stdout, "  recovery: %d live leaves, %d update logs completed, %d orphan values reclaimed\n",
		rs.LiveLeaves, rs.CompletedULogs, rs.OrphanValues)
	fmt.Fprintf(stdout, "  recovery phases (%d worker(s)): ulog replay %v, leaf scan %v, orphan sweep %v, strays, builds and publish %v\n",
		rs.Workers,
		time.Duration(rs.ULogNs).Round(time.Microsecond),
		time.Duration(rs.ScanNs).Round(time.Microsecond),
		time.Duration(rs.SweepNs).Round(time.Microsecond),
		time.Duration(rs.BuildNs).Round(time.Microsecond))
	dir := st.Dir
	fmt.Fprintf(stdout, "  directory: %d entries, hash key %d bytes\n", dir.Entries, db.Options().HashKeyLen)
	for i, hs := range dir.Hot {
		if i >= 3 || hs.Ops == 0 {
			break
		}
		fmt.Fprintf(stdout, "    hot shard %-8q: %6d records, %6d ops since open\n", hs.Prefix, hs.Records, hs.Ops)
	}
	fmt.Fprintf(stdout, "  PM:   %.2f MB reserved of %.2f MB\n",
		float64(st.Size.PMBytes)/(1<<20), float64(st.Arena.Capacity)/(1<<20))
	for _, cs := range st.Alloc {
		fmt.Fprintf(stdout, "  class %-8s (%2d B slots): %6d used, %4d chunks, %4d free chunks, %.2f MB PM, %d B of allocator DRAM\n",
			cs.Name, cs.ObjSize, cs.Used, cs.Chunks, cs.FreeChunks, float64(cs.PMBytes)/(1<<20), cs.VolatileBytes)
	}
	if *events {
		fmt.Fprintln(stdout, "  events:")
		for _, ev := range db.Events() {
			fmt.Fprintf(stdout, "    #%-4d %-20s %-8s", ev.Seq, ev.Kind, ev.Detail)
			if ev.Kind == "recover.phase" {
				fmt.Fprintf(stdout, " items=%d took=%v", ev.A, time.Duration(ev.B).Round(time.Microsecond))
			} else if ev.A != 0 || ev.B != 0 {
				fmt.Fprintf(stdout, " a=%d b=%d", ev.A, ev.B)
			}
			fmt.Fprintln(stdout)
		}
	}
	if err := db.Check(); err != nil {
		return fail("FSCK FAILED: %v", err)
	}
	fmt.Fprintln(stdout, "  fsck: ok (no lost records, no persistent leaks)")
	return 0
}

// Command hartcheck soaks HART under the differential crash-consistency
// model checker (internal/modelcheck): it generates randomized operation
// histories, sweeps every persist boundary of every history with crash
// injection, recovers each crash image, and verifies the recovered store
// against the reference model's legal states plus the full fsck.
//
// It is the long-running companion to the deterministic CI suite in
// internal/modelcheck — run it for minutes or hours to push the sweep
// far past what CI affords:
//
//	hartcheck -duration 10m -recovery
//	hartcheck -seed 42 -histories 500 -ops 60
//
// Any violation prints the failing seed and history, and the command that
// replays exactly that run: hartcheck -seed <seed> -histories 1 with the
// run's own -ops, -recovery, -file and -arena.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/casl-sdsu/hart/internal/modelcheck"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "first history seed (seeds are consumed sequentially)")
		histories = flag.Int("histories", 100, "number of histories to sweep (0 = unlimited, use -duration)")
		ops       = flag.Int("ops", 40, "operations per history")
		duration  = flag.Duration("duration", 0, "stop after this wall time (0 = run all -histories)")
		recovery  = flag.Bool("recovery", false, "also crash recovery at every one of its own persist boundaries (slower)")
		file      = flag.Bool("file", false, "also reopen every crash image through the file backend (slower)")
		arena     = flag.Int64("arena", 0, "simulated PM arena bytes (0 = checker default)")
		progress  = flag.Int("progress", 10, "print progress every N histories (0 = quiet)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: hartcheck [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	cfg := modelcheck.Config{
		ArenaSize:         *arena,
		ReentrantRecovery: *recovery,
		FileReattach:      *file,
	}
	start := time.Now()
	done := 0
	for s := *seed; ; s++ {
		if *histories > 0 && done >= *histories {
			break
		}
		if *duration > 0 && time.Since(start) >= *duration {
			break
		}
		if err := modelcheck.RunSeed(s, *ops, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "hartcheck: VIOLATION at seed %d (ops=%d recovery=%v file=%v):\n%v\n",
				s, *ops, *recovery, *file, err)
			fmt.Fprintf(os.Stderr, "replay with: hartcheck -seed %d -histories 1 -ops %d -recovery=%v -file=%v -arena %d\n",
				s, *ops, *recovery, *file, *arena)
			os.Exit(1)
		}
		done++
		if *progress > 0 && done%*progress == 0 {
			fmt.Printf("hartcheck: %d histories clean (%.1fs, last seed %d)\n",
				done, time.Since(start).Seconds(), s)
		}
	}
	fmt.Printf("hartcheck: OK — %d histories, every persist boundary swept, zero violations (%.1fs)\n",
		done, time.Since(start).Seconds())
}

package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	hart "github.com/casl-sdsu/hart"
	"github.com/casl-sdsu/hart/client"
)

// wire-mixed runs hartd as a child process on a file-backed store without
// latency emulation and drives it over one loopback connection.
const (
	wireRecords   = 250_000
	wireCountOps  = 100_000
	wireBurst     = 64
	wireBatch     = 256
	wireArenaSize = 1 << 30
)

// hartdProcs is the GOMAXPROCS hartd is launched with: every vCPU but the
// one the generator occupies, so the two processes' runtimes do not compete
// for the same two vCPUs with idle Ps of their own. By the sizing in the issue
// that asked for this benchmark, one mix read 125-153 kops/s with the default
// on both sides and 139.6-143.3 this way.
func hartdProcs() int {
	if n := runtime.NumCPU() - 1; n > 1 {
		return n
	}
	return 1
}

// hartdProc is a running hartd child.
type hartdProc struct {
	cmd   *exec.Cmd
	addr  string
	start time.Duration // launch until the "listening on" line
	cpu   cpuClock      // the child's CPU time

	exited chan struct{} // closed once the child has been reaped
	err    error         // its exit status, valid after exited
}

// startHartd launches hartd on path and waits until it is listening.
// The child dies with this process (Pdeathsig), so no failure path of the
// benchmark can leave one behind.
func startHartd(cfg *config, path string) (*hartdProc, error) {
	cmd := exec.Command(cfg.hartd, "-db", path, "-addr", "127.0.0.1:0", "-size", fmt.Sprint(wireArenaSize))
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", hartdProcs()))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = cfg.stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	begin := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &hartdProc{cmd: cmd, cpu: processCPU(cmd.Process.Pid), exited: make(chan struct{})}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if _, addr, ok := strings.Cut(sc.Text(), "listening on "); ok {
			p.addr = addr
			p.start = time.Since(begin)
			break
		}
	}
	// Keep draining stdout so the child never blocks on a full pipe, then
	// reap it; Wait must follow the last read of the pipe.
	go func() {
		for sc.Scan() {
		}
		p.err = cmd.Wait()
		close(p.exited)
	}()
	if p.addr == "" {
		p.kill()
		return nil, errors.New("hartd exited before listening")
	}
	return p, nil
}

func (p *hartdProc) pid() int { return p.cmd.Process.Pid }

// kill sends SIGKILL and waits for the child to be gone.
func (p *hartdProc) kill() {
	p.cmd.Process.Kill()
	<-p.exited
}

// term sends SIGTERM and returns how long the drain and clean shutdown took.
func (p *hartdProc) term() (time.Duration, error) {
	begin := time.Now()
	p.cmd.Process.Signal(syscall.SIGTERM)
	<-p.exited
	return time.Since(begin), p.err
}

// wireStore is a hartd child with one client connection and the model of
// what the client has written and had acknowledged.
type wireStore struct {
	proc *hartdProc
	cl   *client.Client
	path string
	ks   *keyset
	m    *model
	rep  *report

	acked []uint32 // last acknowledged version per key
	puts  int64    // Puts sent in bursts
	pl    *client.Pipeline
	slots [wireBurst]wireSlot
	vals  [wireBurst][valueLen]byte
}

// wireSlot is one queued request of a burst and what its reply must be.
type wireSlot struct {
	idx uint32
	ver uint32 // version written (put) or expected (get)
	put bool
}

// startWireStore launches hartd on a fresh file and preloads n records
// through client.PutBatch.
func startWireStore(cfg *config, rep *report, ks *keyset, n int) (*wireStore, error) {
	path := filepath.Join(cfg.tmp, fmt.Sprintf("wire-%d-%d.pm", os.Getpid(), time.Now().UnixNano()))
	proc, err := startHartd(cfg, path)
	if err != nil {
		return nil, err
	}
	cl, err := client.Dial(proc.addr)
	if err != nil {
		proc.kill()
		os.Remove(path)
		return nil, err
	}
	w := &wireStore{proc: proc, cl: cl, path: path, ks: ks, m: newModel(ks), rep: rep, acked: make([]uint32, ks.len())}
	w.pl = cl.Pipeline()
	recs := make([]client.Record, 0, wireBatch)
	vals := make([]byte, wireBatch*valueLen)
	for i := 0; i < n; i += len(recs) {
		recs = recs[:0]
		for j := i; j < n && len(recs) < wireBatch; j++ {
			v := w.m.nextValue(uint32(j), vals[len(recs)*valueLen:][:valueLen])
			recs = append(recs, client.Record{Key: ks.key(uint32(j)), Value: v})
		}
		applied, err := cl.PutBatch(recs)
		rep.Attempted += int64(len(recs))
		if err != nil || applied != len(recs) {
			rep.fail("preload batch at %d: applied %d of %d: %v", i, applied, len(recs), err)
		}
		for j := i; j < i+applied; j++ {
			w.acked[j] = 1
		}
	}
	w.m.nlive = n
	return w, nil
}

// stop ends the child and removes its store file.
func (w *wireStore) stop() {
	w.cl.Close()
	w.proc.kill()
	os.Remove(w.path)
}

// burst queues 64 requests — slot i a Put of a uniform present key when bit i
// of the word puts yields is set, a Get otherwise — ships them as one pipeline
// and checks every reply. Runs of consecutive Puts are what the server's
// coalescing feeds on.
func (w *wireStore) burst(r *rng, puts func(*rng) uint64) int {
	mask := puts(r)
	for i := range w.slots {
		s := &w.slots[i]
		s.idx, s.put = w.m.pickLive(r), mask>>i&1 == 1
		key := w.ks.key(s.idx)
		if s.put {
			w.puts++
			v := w.m.nextValue(s.idx, w.vals[i][:])
			s.ver = w.m.ver[s.idx].Load()
			w.pl.Put(key, v)
		} else {
			s.ver = w.m.ver[s.idx].Load()
			w.pl.Get(key)
		}
	}
	w.rep.Attempted += wireBurst
	res, err := w.pl.Exec()
	if err != nil && len(res) == 0 {
		w.rep.Failed += wireBurst
		return 0
	}
	done := 0
	for i, s := range w.slots {
		switch {
		case res[i].Err != nil:
			w.rep.fail("wire op on %q: %v", w.ks.key(s.idx), res[i].Err)
		case s.put:
			w.acked[s.idx] = s.ver
			done++
		default:
			gi, gv, ok := decodeValue(res[i].Value)
			if ok && gi == s.idx && gv == s.ver {
				done++
			} else {
				w.rep.fail("wire get %q: value %x want version %d", w.ks.key(s.idx), res[i].Value, s.ver)
			}
		}
	}
	return done
}

// halfPuts draws 32 of a burst's 64 slots, every choice as likely as any
// other. Each burst carries the same mix, so none is cheaper than another by
// the draw and the fast blocks of a run are not the ones that drew fewer Puts.
func halfPuts(r *rng) uint64 {
	var mask uint64
	for need, left := wireBurst/2, wireBurst; left > 0; left-- {
		if r.intn(left) < need {
			mask |= 1 << (left - 1)
			need--
		}
	}
	return mask
}

func allGets(*rng) uint64 { return 0 }
func allPuts(*rng) uint64 { return ^uint64(0) }

func (w *wireStore) mixed(r *rng) func() int { return func() int { return w.burst(r, halfPuts) } }

// get is one un-pipelined round trip, checked.
func (w *wireStore) get(r *rng) int {
	idx := w.m.pickLive(r)
	w.rep.Attempted++
	v, err := w.cl.Get(w.ks.key(idx))
	if err == nil && w.m.valueOK(idx, v) {
		return 1
	}
	w.rep.fail("wire get %q: %v value %x", w.ks.key(idx), err, v)
	return 0
}

// put is one un-pipelined acknowledged write.
func (w *wireStore) put(r *rng) int {
	idx := w.m.pickLive(r)
	w.rep.Attempted++
	err := w.cl.Put(w.ks.key(idx), w.m.nextValue(idx, w.vals[0][:]))
	if err == nil {
		w.acked[idx] = w.m.ver[idx].Load()
		return 1
	}
	w.rep.fail("wire put %q: %v", w.ks.key(idx), err)
	return 0
}

// stats fetches the server's counters: the store's and the daemon's own.
func (w *wireStore) stats() client.Stats {
	st, err := w.cl.Stats()
	w.rep.ok(err == nil, "wire stats: %v", err)
	return st
}

func (w *wireStore) counters() map[string]uint64 { return w.stats().Counters }

// timed runs op, every call timed, for the given share of the timed budget
// and appends the blocks to p; their CPU time is the hartd child's.
func (w *wireStore) timed(cfg *config, p *phase, share float64, op func() int) {
	p.run(cfg.phaseDur(share), cfg.blockDur(), 1, w.proc.cpu, op, nil)
}

// killMidBurst sends SIGKILL while a burst is in flight. Puts of that burst
// may or may not have been applied; only those whose reply arrived count as
// acknowledged.
func (w *wireStore) killMidBurst(r *rng) {
	timer := time.AfterFunc(200*time.Microsecond, func() { w.proc.cmd.Process.Kill() })
	for i := 0; i < 50; i++ {
		attempted, failed, failures := w.rep.Attempted, w.rep.Failed, len(w.rep.Failures)
		if w.burst(r, halfPuts) < wireBurst {
			// The interrupted burst's errors are the point of the exercise,
			// not failures; the replies that did arrive stay acknowledged.
			w.rep.Attempted, w.rep.Failed, w.rep.Failures = attempted, failed, w.rep.Failures[:failures]
			break
		}
	}
	timer.Stop()
	w.cl.Close()
	w.proc.kill()
}

// reopenCycles opens the store file in this process until a checked read
// succeeds and DrainRecovery returns — the first cycle on the image the
// killed daemon left, the rest after a clean Close — and checks it against
// the acknowledged writes. Returns the last open store for the space metrics.
func (w *wireStore) reopenCycles(cfg *config) (*hart.DB, error) {
	var secs []float64
	var db *hart.DB
	buf := make([]byte, 0, hart.MaxValueLen)
	budget := cfg.phaseDur(0.5)
	for c, begin := 0, time.Now(); c < minCycles || time.Since(begin) < budget; c++ {
		if db != nil {
			if err := db.Close(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // the index the last cycle closed is garbage; collect it outside the timer
		start := time.Now()
		var err error
		db, err = hart.Open(w.path, hart.Options{RecoveryWorkers: runtime.NumCPU()})
		if err != nil {
			return nil, fmt.Errorf("reopen after kill: %w", err)
		}
		_, found := db.GetInto(w.ks.key(0), buf[:0])
		db.DrainRecovery()
		secs = append(secs, time.Since(start).Seconds())
		w.rep.ok(found, "reopen cycle %d: first read missed", c)
		if c == 0 {
			w.rep.ok(!db.LastRecoveryStats().WasClean, "reopen: killed daemon left a clean flag")
			w.verifyAcked(db)
		}
	}
	w.rep.setFast("recovery_s", secs, cycleShare)
	return db, nil
}

// verifyAcked checks the recovered store against the log of acknowledged
// Puts: every key holds a version no older than its last acknowledged one
// and no newer than the last one sent.
func (w *wireStore) verifyAcked(db *hart.DB) {
	buf := make([]byte, 0, hart.MaxValueLen)
	for i := 0; i < w.m.nlive; i++ {
		idx := uint32(i)
		v, ok := db.GetInto(w.ks.key(idx), buf[:0])
		gi, gv, dec := decodeValue(v)
		w.rep.ok(ok && dec && gi == idx && gv >= w.acked[idx] && gv <= w.m.ver[idx].Load(),
			"after kill %q: found=%v value=%x acked version %d sent %d", w.ks.key(idx), ok, v, w.acked[idx], w.m.ver[idx].Load())
	}
	w.rep.ok(db.Len() == w.m.nlive, "after kill: Len=%d want %d", db.Len(), w.m.nlive)
}

func runWireMixed(cfg *config, rep *report) error {
	// One generator thread against a server on the other vCPUs: see hartdProcs.
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	var w *wireStore
	err := timeSetup(cfg, rep, func() (err error) {
		w, err = startWireStore(cfg, rep, newKeyset(cfg.records+cfg.spare(), cfg.seed), cfg.records)
		return err
	}, func() { w.stop() })
	if err != nil {
		return err
	}
	defer os.Remove(w.path)
	if cfg.trace {
		defer w.stop()
		return traceWire(cfg, w)
	}

	// Count phase: a fixed number of pipelined ops, deltas from client.Stats.
	r := newRNG(cfg.seed, 1)
	bursts := cfg.scaled(wireCountOps, wireRecords) / wireBurst
	d := counterDelta(w.counters, func() {
		for i := 0; i < bursts; i++ {
			w.burst(r, halfPuts)
		}
	})
	rep.set("pm_persists_per_op", d["pm.persists"]/float64(bursts*wireBurst))
	rep.set("pm_reads_per_op", d["pm.reads"]/float64(bursts*wireBurst))
	rep.mark("count")

	// Timed phase: pipelined bursts, every one timed. CPU time is the daemon's;
	// latency is how long the caller waits for a burst's 64 replies.
	var piped phase
	w.timed(cfg, &piped, 1, w.mixed(newRNG(cfg.seed, 2)))
	piped.report(rep)
	rep.Blocks["timed"] = piped.blocks
	rep.mark("timed")

	w.killMidBurst(newRNG(cfg.seed, 4))
	runtime.GOMAXPROCS(procs) // the daemon is gone; recovery gets its workers
	db, err := w.reopenCycles(cfg)
	if err != nil {
		return err
	}
	st := db.Stats()
	rep.set("pm_bytes_per_user_byte", float64(st.Size.PMBytes)/float64(w.m.userBytes()))
	rep.set("dram_bytes_per_record", float64(st.Size.DRAMBytes)/float64(st.Records))
	rep.mark("kill-recover")
	return db.Close()
}

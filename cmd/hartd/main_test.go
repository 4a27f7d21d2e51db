package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	hart "github.com/casl-sdsu/hart"
	"github.com/casl-sdsu/hart/client"
	"github.com/casl-sdsu/hart/internal/pmem"
)

// TestHelperHartd is not a real test: it is the daemon body for the
// process-level tests below, active only under HARTD_TEST_DB. It runs
// the real run() — flag parsing, hart.Open, serve loop, signal
// handling — so a SIGTERM exercises exactly the production shutdown
// path and a SIGKILL exactly the production crash surface.
func TestHelperHartd(t *testing.T) {
	path := os.Getenv("HARTD_TEST_DB")
	if path == "" {
		t.Skip("helper process body; run via the daemon tests")
	}
	code := run([]string{"-db", path, "-addr", "127.0.0.1:0", "-size", fmt.Sprint(16 << 20)},
		os.Stdout, os.Stderr, nil)
	if code != 0 {
		t.Fatalf("hartd exited %d", code)
	}
}

// daemon is one spawned hartd child process. opened is the line it
// printed on attaching the store. done is closed once the process has
// exited (waitErr holds its exit error), so any number of receivers can
// wait on it.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	opened  string
	done    chan struct{}
	waitErr error
}

// exited waits (bounded) for the daemon to exit and returns its error.
func (d *daemon) exited(t *testing.T, within time.Duration) error {
	t.Helper()
	select {
	case <-d.done:
		return d.waitErr
	case <-time.After(within):
		t.Fatal("daemon did not exit in time")
		return nil
	}
}

// startDaemon spawns hartd (via the helper) on path, with env added to
// its environment, and waits until it reports its listen address.
func startDaemon(t *testing.T, path string, env ...string) *daemon {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperHartd$")
	cmd.Env = append(append(os.Environ(), "HARTD_TEST_DB="+path), env...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start daemon: %v", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-d.done
	})

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "hartd: opened ") {
				d.opened = line
			}
			if rest, ok := strings.CutPrefix(line, "hartd: listening on "); ok {
				select {
				case addrCh <- rest:
				default:
				}
			}
		}
	}()
	go func() {
		d.waitErr = cmd.Wait()
		close(d.done)
	}()

	select {
	case d.addr = <-addrCh:
	case <-d.done:
		t.Fatalf("daemon exited before listening: %v", d.waitErr)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not report a listen address")
	}
	return d
}

// TestSigtermCleanShutdown is the clean-flag satellite: write through a
// live daemon, SIGTERM it, require exit code 0, and require the store
// file to reopen with WasClean=true and every record present.
func TestSigtermCleanShutdown(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sigterm.hart")
	d := startDaemon(t, path)

	c, err := client.Dial(d.addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	const N = 200
	for i := 0; i < N; i++ {
		if err := c.Put([]byte(fmt.Sprintf("term-%04d", i)), []byte(fmt.Sprintf("tv-%04d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	c.Close()

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signal: %v", err)
	}
	if err := d.exited(t, 30*time.Second); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v (want exit 0)", err)
	}

	db, err := hart.Open(path, hart.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db.Close()
	if !db.LastRecoveryStats().WasClean {
		t.Fatal("SIGTERM shutdown left the store marked dirty")
	}
	if db.Len() != N {
		t.Fatalf("reopened Len = %d, want %d", db.Len(), N)
	}
	for i := 0; i < N; i++ {
		key := fmt.Sprintf("term-%04d", i)
		if v, ok := db.Get([]byte(key)); !ok || string(v) != fmt.Sprintf("tv-%04d", i) {
			t.Fatalf("Get(%s) = %q, %v after clean shutdown", key, v, ok)
		}
	}
}

// TestKillMidTrafficDurability is the issue's acceptance test: 8
// concurrent clients stream pipelined bursts of 32 Puts at a live daemon,
// which coalesces them into PutBatch calls; the daemon is SIGKILLed
// mid-traffic, so the kill can land inside a coalesced batch; a fresh
// daemon is started on the same file and every acknowledged write must
// be readable over the wire — zero acked-write loss. The restarted daemon
// then gets a SIGTERM and the image must come back clean.
func TestKillMidTrafficDurability(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kill.hart")
	d := startDaemon(t, path)

	const clients, burst = 8, 32
	type ackedWrite struct{ key, val string }
	ackedByClient := make([][]ackedWrite, clients)
	var totalAcked atomic.Int64

	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := client.Dial(d.addr)
			if err != nil {
				return // daemon may already be dead; nothing acked, nothing owed
			}
			defer c.Close()
			p := c.Pipeline()
			for i := 0; ; i += burst {
				var sent []ackedWrite
				for j := i; j < i+burst; j++ {
					w := ackedWrite{fmt.Sprintf("kill-c%d-%06d", ci, j), fmt.Sprintf("kv-%d-%06d", ci, j)}
					p.Put([]byte(w.key), []byte(w.val))
					sent = append(sent, w)
				}
				res, err := p.Exec()
				for j, r := range res {
					// Ack received before the kill resolves: must survive.
					// A Put without one is allowed to be lost.
					if r.Err == nil {
						ackedByClient[ci] = append(ackedByClient[ci], sent[j])
						totalAcked.Add(1)
					}
				}
				if err != nil {
					return
				}
			}
		}(ci)
	}

	// Let real traffic build up, then kill without ceremony.
	for totalAcked.Load() < 2000 {
		time.Sleep(5 * time.Millisecond)
	}
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	wg.Wait()
	d.exited(t, 30*time.Second) // SIGKILL exit; error expected, ignore

	// Trim each client's trailing ack: a response can be acked by the
	// server (written to the socket) and still die in the kernel buffer
	// of the killed process... no — acked here means the *client* read
	// the response, and the server wrote it only after the record was
	// durable in the mapped file. Nothing to trim; assert all of it.
	d2 := startDaemon(t, path)
	c, err := client.Dial(d2.addr)
	if err != nil {
		t.Fatalf("dial restarted daemon: %v", err)
	}
	checked := 0
	for ci := range ackedByClient {
		for _, w := range ackedByClient[ci] {
			v, err := c.Get([]byte(w.key))
			if err != nil || string(v) != w.val {
				t.Fatalf("acked write lost across SIGKILL: Get(%s) = %q, %v; want %q",
					w.key, v, err, w.val)
			}
			checked++
		}
	}
	c.Close()
	t.Logf("durability: %d acked writes verified across kill+restart", checked)

	// Clean shutdown of the restarted daemon leaves a clean image.
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signal: %v", err)
	}
	if err := d2.exited(t, 30*time.Second); err != nil {
		t.Fatalf("restarted daemon exit after SIGTERM: %v", err)
	}
	db, err := hart.Open(path, hart.Options{})
	if err != nil {
		t.Fatalf("final reopen: %v", err)
	}
	defer db.Close()
	if !db.LastRecoveryStats().WasClean {
		t.Fatal("restarted daemon's SIGTERM shutdown left the store dirty")
	}
	if db.Len() < checked {
		t.Fatalf("final store has %d records, fewer than %d acked", db.Len(), checked)
	}
}

// TestRecoveryWorkersDefault reopens a dirty image: recovery must run on
// GOMAXPROCS workers, as the package documentation says, not serially.
func TestRecoveryWorkersDefault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dirty.hart")
	db, err := hart.Open(path, hart.Options{ArenaSize: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := db.Put([]byte(fmt.Sprintf("dirty-%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon the store without Close, so the image stays dirty.
	if err := db.Arena().Sync(); err != nil {
		t.Fatal(err)
	}
	if err := pmem.BackendOf(db.Arena()).Close(); err != nil {
		t.Fatal(err)
	}

	d := startDaemon(t, path, "GOMAXPROCS=3")
	if want := "100 records (crash image, recovered, 3 recovery workers)"; !strings.HasSuffix(d.opened, want) {
		t.Fatalf("hartd printed %q, want it to end in %q", d.opened, want)
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signal: %v", err)
	}
	if err := d.exited(t, 30*time.Second); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v", err)
	}
}

// TestRunFlagValidation pins the daemon's refusal paths: no -db, and a
// bad flag, both without touching any store file.
func TestRunFlagValidation(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut, nil); code != 2 {
		t.Fatalf("run with no -db: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "-db is required") {
		t.Fatalf("stderr = %q", errOut.String())
	}
	if code := run([]string{"-no-such-flag"}, &out, &errOut, nil); code != 2 {
		t.Fatalf("run with bad flag: exit %d, want 2", code)
	}
}

// runInProcess starts run() in-process with args beside a fresh store and
// returns the address it serves on and a stop that delivers SIGTERM and
// waits for a clean exit: the real handler listens for os.Interrupt and
// SIGTERM, so signalling ourselves drives the production shutdown path.
func runInProcess(t *testing.T, args ...string) (addr string, stop func()) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "inproc.hart")
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	var out strings.Builder
	args = append([]string{"-db", path, "-addr", "127.0.0.1:0", "-size", fmt.Sprint(16 << 20)}, args...)
	go func() { exit <- run(args, &out, os.Stderr, ready) }()
	select {
	case addr = <-ready:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon not ready")
	}
	return addr, func() {
		t.Helper()
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatalf("self-signal: %v", err)
		}
		select {
		case code := <-exit:
			if code != 0 {
				t.Fatalf("run exited %d\n%s", code, out.String())
			}
		case <-time.After(30 * time.Second):
			t.Fatal("run did not exit after SIGTERM")
		}
		if !strings.Contains(out.String(), "clean shutdown") {
			t.Fatalf("output missing clean shutdown: %q", out.String())
		}
	}
}

// TestRunInProcessServes exercises run() end to end in-process via the
// ready channel: open, serve, one client round trip, SIGTERM-equivalent
// shutdown through the real signal handler.
func TestRunInProcessServes(t *testing.T) {
	addr, stop := runInProcess(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := c.Put([]byte("inproc"), []byte("works")); err != nil {
		t.Fatalf("put: %v", err)
	}
	if v, err := c.Get([]byte("inproc")); err != nil || string(v) != "works" {
		t.Fatalf("get = %q, %v", v, err)
	}
	c.Close()
	stop()
}

// TestMetricsAddrExportsServerCounters scrapes -metrics-addr's /metrics
// after a client's Puts and Gets and finds the server's own counters
// beside the store's, with the values the Stats op reports.
func TestMetricsAddrExportsServerCounters(t *testing.T) {
	// A free port for the metrics listener, which reports no address.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mAddr := ln.Addr().String()
	ln.Close()
	addr, stop := runInProcess(t, "-metrics-addr", mAddr)
	defer stop()

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	p := c.Pipeline()
	for i := 0; i < 10; i++ {
		p.Put([]byte(fmt.Sprintf("m%02d", i)), []byte("v"))
	}
	for i := 0; i < 10; i++ {
		p.Get([]byte(fmt.Sprintf("m%02d", i)))
	}
	if _, err := p.Exec(); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}

	var body string
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + mAddr + "/metrics")
		if err == nil {
			b, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK {
				body = string(b)
				break
			}
			err = fmt.Errorf("status %s, read %v", resp.Status, rerr)
		}
		if time.Now().After(deadline) {
			t.Fatalf("scrape /metrics: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	got := map[string]uint64{}
	for _, line := range strings.Split(body, "\n") {
		var name string
		var v uint64
		if _, err := fmt.Sscanf(line, "%s %d", &name, &v); err == nil {
			got[name] = v
		}
	}
	// The Stats document counts its own request: 21.
	for name, want := range map[string]uint64{
		"hart_server_conns_accepted":  1,
		"hart_server_conns_active":    1,
		"hart_server_requests":        21,
		"hart_server_puts_coalesced":  st.Server["puts_coalesced"],
		"hart_server_batches_formed":  st.Server["batches_formed"],
		"hart_server_protocol_errors": 0,
		"hart_ops_get":                10,
		"hart_ops_put_batch_records":  10, // the coalesced Puts
	} {
		if v, ok := got[name]; !ok || v != want {
			t.Errorf("/metrics %s = %d (present %v), want %d", name, v, ok, want)
		}
	}
	if st.Server["puts_coalesced"] == 0 {
		t.Errorf("no Put of the pipeline was coalesced: %v", st.Server)
	}
	if t.Failed() {
		t.Logf("/metrics:\n%s", body)
	}
}

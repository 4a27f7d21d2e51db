package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/casl-sdsu/hart/internal/core"
	"github.com/casl-sdsu/hart/internal/wire"
)

// serve runs a server on ln over a fresh in-memory store and tears both
// down in the right order (drain the server, then close the store) at
// test end.
func serve(t *testing.T, ln net.Listener) (*Server, *core.HART) {
	t.Helper()
	h, err := core.New(core.Options{})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	t.Cleanup(func() { h.Close() })
	s := New(h, Options{})
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	t.Cleanup(func() {
		s.Shutdown()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return s, h
}

// testServer is a server on an ephemeral TCP port.
type testServer struct {
	*Server
	addr string
}

func startServer(t *testing.T) (*testServer, *core.HART) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s, h := serve(t, ln)
	return &testServer{Server: s, addr: ln.Addr().String()}, h
}

// dial opens a raw protocol connection to the test server.
func dial(t *testing.T, s *testServer) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", s.addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// pipeListener hands Serve the server ends of net.Pipe connections. A
// pipe delivers one Write to one Read when the reader has room, so a test
// decides exactly what one burst holds, and sees each server write whole.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func startPipeServer(t *testing.T) (*Server, *core.HART, *pipeListener) {
	t.Helper()
	l := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	s, h := serve(t, l)
	return s, h, l
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// dial opens a pipe to the server and returns the client end.
func (l *pipeListener) dial(t *testing.T) net.Conn {
	t.Helper()
	c, srv := net.Pipe()
	l.conns <- srv
	t.Cleanup(func() { c.Close() })
	return c
}

// frame encodes one request into its on-wire frame.
func frame(t *testing.T, req wire.Request) []byte {
	t.Helper()
	p, err := req.AppendRequest(nil)
	if err != nil {
		t.Fatalf("encode %s: %v", req.Op, err)
	}
	return wire.AppendFrame(nil, p)
}

// readFrame reads one frame's payload from r: io.EOF if the stream ends
// between frames, wire.ErrTruncated if it ends inside one.
func readFrame(r io.Reader) ([]byte, error) {
	b := make([]byte, 4)
	if _, err := io.ReadFull(r, b); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = wire.ErrTruncated
		}
		return nil, err
	}
	_, n, err := wire.SplitFrame(b)
	if err != nil {
		return nil, err
	}
	b = append(b, make([]byte, n-len(b))...)
	if _, err := io.ReadFull(r, b[4:]); err != nil {
		return nil, wire.ErrTruncated
	}
	p, _, err := wire.SplitFrame(b)
	return p, err
}

// readResp reads and decodes one response for op.
func readResp(t *testing.T, br *bufio.Reader, op wire.Op) wire.Response {
	t.Helper()
	p, err := readFrame(br)
	if err != nil {
		t.Fatalf("read %s response frame: %v", op, err)
	}
	resp, err := wire.DecodeResponse(p, op)
	if err != nil {
		t.Fatalf("decode %s response: %v", op, err)
	}
	return resp
}

// step is one request of a burst and the response it must get.
type step struct {
	req        wire.Request
	wantStatus wire.Status
	wantValue  []byte
}

// runBurst writes every step's request with one Write, then checks each
// response, in order, against its step.
func runBurst(t *testing.T, c net.Conn, br *bufio.Reader, steps []step) {
	t.Helper()
	var stream []byte
	for _, st := range steps {
		stream = append(stream, frame(t, st.req)...)
	}
	if _, err := c.Write(stream); err != nil {
		t.Fatalf("write burst: %v", err)
	}
	for i, st := range steps {
		resp := readResp(t, br, st.req.Op)
		if resp.Status != st.wantStatus {
			t.Fatalf("step %d (%s %q): status %s, want %s (msg %q)",
				i, st.req.Op, st.req.Key, resp.Status, st.wantStatus, resp.Msg)
		}
		if st.wantValue != nil && !bytes.Equal(resp.Value, st.wantValue) {
			t.Fatalf("step %d: value %q, want %q", i, resp.Value, st.wantValue)
		}
	}
}

// TestPutCoalescing pins coalescing as a function of the burst. One burst
// of 600 valid Puts, broken by a Get, an invalid Put and a Delete, reaches
// the store as exactly the runs between them: a run of one as a Put, a
// run of 2–256 as one PutBatch, a longer run split at batchMax. The pipe
// hands the whole burst to one server read, so no count here depends on
// timing.
func TestPutCoalescing(t *testing.T) {
	s, h, l := startPipeServer(t)
	key := func(i int) []byte { return []byte(fmt.Sprintf("co-%03d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("v-%03d", i)) }

	var steps []step
	puts := 0
	run := func(n int) {
		for ; n > 0; n-- {
			steps = append(steps, step{req: wire.Request{Op: wire.OpPut, Key: key(puts), Value: val(puts)}, wantStatus: wire.StatusOK})
			puts++
		}
	}
	run(300) // PutBatch(256) + PutBatch(44)
	steps = append(steps, step{req: wire.Request{Op: wire.OpGet, Key: key(7)}, wantStatus: wire.StatusOK, wantValue: val(7)})
	run(1) // Put
	steps = append(steps, step{req: wire.Request{Op: wire.OpPut, Key: key(999)}, wantStatus: wire.StatusBadRequest})
	run(100) // PutBatch(100)
	steps = append(steps, step{req: wire.Request{Op: wire.OpDelete, Key: key(0)}, wantStatus: wire.StatusOK})
	run(199) // PutBatch(199)
	c := l.dial(t)
	runBurst(t, c, bufio.NewReader(c), steps)

	m := h.Metrics().Counters
	got := [3]uint64{m["ops.put"], m["ops.put_batch"], m["ops.put_batch_records"]}
	if want := [3]uint64{1, 4, 599}; got != want {
		t.Fatalf("ops.put, ops.put_batch, ops.put_batch_records = %v, want %v", got, want)
	}
	if sm := s.Metrics(); sm.BatchesFormed != 4 || sm.PutsCoalesced != 599 {
		t.Fatalf("server counters %+v, want 4 batches of 599 Puts", sm)
	}
	if h.Len() != puts-1 {
		t.Fatalf("store holds %d records, want %d", h.Len(), puts-1)
	}
}

// TestResponseOrder pipelines a mixed op sequence in one burst and
// asserts each response comes back in request order, carrying the
// payload only its position in the sequence could produce. A Put run
// is deliberately interrupted by an invalid Put, a Delete miss, a Get
// and a Scan so the order crosses every coalescing boundary case.
func TestResponseOrder(t *testing.T) {
	s, h := startServer(t)
	c := dial(t, s)

	val := func(i int) []byte { return []byte(fmt.Sprintf("v-%03d", i)) }
	key := func(i int) []byte { return []byte(fmt.Sprintf("ord-%03d", i)) }

	var steps []step
	for i := 0; i < 8; i++ {
		steps = append(steps, step{req: wire.Request{Op: wire.OpPut, Key: key(i), Value: val(i)}, wantStatus: wire.StatusOK})
	}
	steps = append(steps,
		// Invalid Put mid-stream: must not poison neighbours, must
		// answer in position.
		step{req: wire.Request{Op: wire.OpPut, Key: key(99)}, wantStatus: wire.StatusBadRequest},
		step{req: wire.Request{Op: wire.OpPut, Key: key(8), Value: val(8)}, wantStatus: wire.StatusOK},
		// Read-your-writes on the same connection.
		step{req: wire.Request{Op: wire.OpGet, Key: key(3)}, wantStatus: wire.StatusOK, wantValue: val(3)},
		step{req: wire.Request{Op: wire.OpDelete, Key: key(3)}, wantStatus: wire.StatusOK},
		step{req: wire.Request{Op: wire.OpGet, Key: key(3)}, wantStatus: wire.StatusNotFound},
		step{req: wire.Request{Op: wire.OpDelete, Key: []byte("never-existed")}, wantStatus: wire.StatusNotFound},
		step{req: wire.Request{Op: wire.OpPut, Key: key(9), Value: val(9)}, wantStatus: wire.StatusOK},
		step{req: wire.Request{Op: wire.OpGet, Key: key(9)}, wantStatus: wire.StatusOK, wantValue: val(9)},
	)
	br := bufio.NewReader(c)
	runBurst(t, c, br, steps)

	// A scan at the end sees the same connection's net effect: keys 0-9
	// except the deleted key(3).
	scanStream := frame(t, wire.Request{Op: wire.OpScan, Start: []byte("ord-"), End: []byte("ord-~")})
	if _, err := c.Write(scanStream); err != nil {
		t.Fatalf("write scan: %v", err)
	}
	resp := readResp(t, br, wire.OpScan)
	if resp.Status != wire.StatusOK || len(resp.Records) != 9 {
		t.Fatalf("scan: status %s, %d records, want OK/9", resp.Status, len(resp.Records))
	}
	for _, r := range resp.Records {
		if bytes.Equal(r.Key, key(3)) {
			t.Fatalf("scan returned deleted key %q", r.Key)
		}
	}
	if h.Len() != 9 {
		t.Fatalf("store holds %d, want 9", h.Len())
	}
}

// TestProtocolErrorClosesConn sends an unparseable frame and expects
// one StatusBadRequest response followed by connection close — framing
// is unrecoverable after garbage, so the server must not keep reading.
func TestProtocolErrorClosesConn(t *testing.T) {
	s, _ := startServer(t)

	cases := []struct {
		name    string
		payload []byte
	}{
		{"bad-version", []byte{wire.Version + 7, byte(wire.OpGet), 0, 1, 'k'}},
		{"bad-op", []byte{wire.Version, 250}},
		{"truncated-body", []byte{wire.Version, byte(wire.OpGet), 0xff, 0xff, 'k'}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := dial(t, s)
			if _, err := c.Write(wire.AppendFrame(nil, tc.payload)); err != nil {
				t.Fatalf("write: %v", err)
			}
			br := bufio.NewReader(c)
			p, err := readFrame(br)
			if err != nil {
				t.Fatalf("want an error response before close, got %v", err)
			}
			resp, err := wire.DecodeResponse(p, wire.OpGet)
			if err != nil {
				t.Fatalf("decode error response: %v", err)
			}
			if resp.Status != wire.StatusBadRequest {
				t.Fatalf("status %s, want %s", resp.Status, wire.StatusBadRequest)
			}
			c.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := readFrame(br); !errors.Is(err, io.EOF) {
				t.Fatalf("conn after protocol error: %v, want EOF", err)
			}
		})
	}

	// An oversized length prefix must also be refused and the conn
	// dropped, never allocated.
	t.Run("oversized-frame", func(t *testing.T) {
		c := dial(t, s)
		huge := []byte{0x00, 0x20, 0x00, 0x01} // 2 MiB + 1 > MaxFrame
		if _, err := c.Write(huge); err != nil {
			t.Fatalf("write: %v", err)
		}
		br := bufio.NewReader(c)
		p, err := readFrame(br)
		if err != nil {
			t.Fatalf("want an error response before close, got %v", err)
		}
		if resp, _ := wire.DecodeResponse(p, wire.OpGet); resp.Status != wire.StatusBadRequest {
			t.Fatalf("status %s, want %s", resp.Status, wire.StatusBadRequest)
		}
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := readFrame(br); !errors.Is(err, io.EOF) {
			t.Fatalf("conn after oversized frame: %v, want EOF", err)
		}
	})
}

// TestShutdownDrains writes a burst of Puts, shuts the server down
// concurrently and asserts the drain contract: every request the
// server received before the cut-off is executed AND its response
// delivered — the response count read before EOF must equal the number
// of records in the store. No acked-but-lost, no applied-but-silent.
func TestShutdownDrains(t *testing.T) {
	const K = 256
	s, h := startServer(t)
	c := dial(t, s)
	// The drain contract covers connections the server has accepted. One
	// still in the listen backlog when Shutdown closes the listener is
	// reset by the kernel — no request of it was ever received.
	for s.Metrics().ConnsActive == 0 {
		time.Sleep(time.Millisecond)
	}

	var stream []byte
	for i := 0; i < K; i++ {
		stream = append(stream, frame(t, wire.Request{
			Op:    wire.OpPut,
			Key:   []byte(fmt.Sprintf("drain-%04d", i)),
			Value: []byte("x"),
		})...)
	}
	if _, err := c.Write(stream); err != nil {
		t.Fatalf("write burst: %v", err)
	}

	// Consume responses the way a real client does — concurrently with
	// the shutdown — and close our end once the server's FIN arrives,
	// which is what lets its linger-drain finish promptly.
	ackedCh := make(chan int, 1)
	go func() {
		acked := 0
		br := bufio.NewReader(c)
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		for {
			p, err := readFrame(br)
			if err != nil {
				if !errors.Is(err, io.EOF) {
					t.Errorf("read during drain: %v", err)
				}
				break
			}
			resp, err := wire.DecodeResponse(p, wire.OpPut)
			if err != nil {
				t.Errorf("decode drained response: %v", err)
				break
			}
			if resp.Status != wire.StatusOK {
				t.Errorf("drained put status %s (%s)", resp.Status, resp.Msg)
				break
			}
			acked++
		}
		c.Close()
		ackedCh <- acked
	}()

	if err := s.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	acked := <-ackedCh
	if got := h.Len(); got != acked {
		t.Fatalf("acked %d puts but store holds %d — drain broke the ack contract", acked, got)
	}
	t.Logf("drain: %d/%d puts acked and applied", acked, K)

	// The listener is down: new connections must be refused.
	if cc, err := net.DialTimeout("tcp", s.addr, time.Second); err == nil {
		cc.Close()
		t.Fatal("dial succeeded after Shutdown")
	}
}

// TestShutdownNonReadingPeer pipelines Gets at a server and never reads
// a response, so the server's writes block on a full socket. Shutdown
// must still return: its write deadline fails the blocked write and the
// connection closes.
func TestShutdownNonReadingPeer(t *testing.T) {
	s, _ := startServer(t)
	c := dial(t, s)
	stream := bytes.Repeat(frame(t, wire.Request{Op: wire.OpGet, Key: []byte("no-such-key")}), 400_000)
	go c.Write(stream) // fails once either side closes; dial's cleanup closes c
	time.Sleep(2 * time.Second)

	done := make(chan struct{})
	go func() {
		s.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("Shutdown still blocked after 5 s, %d requests read", s.Metrics().Requests)
	}
}

// TestScanBurstWriteBound pins the per-connection output bound: a burst
// of full-page Scans, read slowly, arrives whole and in order, and no
// server write exceeds outFlush plus one page.
func TestScanBurstWriteBound(t *testing.T) {
	_, h, l := startPipeServer(t)
	recs := make([]core.Record, wire.MaxScanPage+1)
	for i := range recs {
		recs[i] = core.Record{Key: []byte(fmt.Sprintf("scan-%05d", i)), Value: []byte("value-08")}
	}
	if _, err := h.PutBatch(recs); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	page := wire.Response{Status: wire.StatusOK, More: true, Records: make([]wire.Record, wire.MaxScanPage)}
	for i := range page.Records {
		page.Records[i] = wire.Record{Key: recs[i].Key, Value: recs[i].Value}
	}
	p, err := page.AppendResponse(nil, wire.OpScan)
	if err != nil {
		t.Fatal(err)
	}
	pageFrame := wire.AppendFrame(nil, p)

	const scans = 50
	c := l.dial(t)
	var stream []byte
	for i := 0; i < scans; i++ {
		stream = append(stream, frame(t, wire.Request{Op: wire.OpScan})...)
	}
	if _, err := c.Write(stream); err != nil {
		t.Fatalf("write burst: %v", err)
	}
	var got []byte
	buf := make([]byte, 4<<20)
	for len(got) < scans*len(pageFrame) {
		time.Sleep(time.Millisecond)
		n, err := c.Read(buf)
		if err != nil {
			t.Fatalf("read after %d bytes: %v", len(got), err)
		}
		if n > outFlush+len(pageFrame) {
			t.Fatalf("one server write of %d bytes, bound %d", n, outFlush+len(pageFrame))
		}
		got = append(got, buf[:n]...)
	}
	for i := 0; i < scans; i++ {
		if !bytes.Equal(got[:len(pageFrame)], pageFrame) {
			t.Fatalf("scan %d: response is not the first page", i)
		}
		got = got[len(pageFrame):]
	}
	if len(got) != 0 {
		t.Fatalf("%d bytes beyond %d pages", len(got), scans)
	}
}

// TestStatsOp checks the Stats document: store-level record counts and
// counters plus the server's own connection/coalescing counters.
func TestStatsOp(t *testing.T) {
	s, _ := startServer(t)
	c := dial(t, s)
	br := bufio.NewReader(c)

	for i := 0; i < 3; i++ {
		req := wire.Request{Op: wire.OpPut, Key: []byte{byte('a' + i)}, Value: []byte("v")}
		if _, err := c.Write(frame(t, req)); err != nil {
			t.Fatalf("write put: %v", err)
		}
		if resp := readResp(t, br, wire.OpPut); resp.Status != wire.StatusOK {
			t.Fatalf("put: %s", resp.Status)
		}
	}
	if _, err := c.Write(frame(t, wire.Request{Op: wire.OpStats})); err != nil {
		t.Fatalf("write stats: %v", err)
	}
	resp := readResp(t, br, wire.OpStats)
	if resp.Status != wire.StatusOK {
		t.Fatalf("stats: %s (%s)", resp.Status, resp.Msg)
	}
	var p wire.StatsPayload
	if err := json.Unmarshal(resp.Value, &p); err != nil {
		t.Fatalf("stats payload: %v", err)
	}
	if p.Records != 3 {
		t.Fatalf("stats records = %d, want 3", p.Records)
	}
	if p.Counters["ops.put"]+p.Counters["ops.put_batch_records"] != 3 {
		t.Fatalf("stats counters missing puts: %v", p.Counters)
	}
	if p.Server["requests"] != 4 || p.Server["conns_accepted"] != 1 {
		t.Fatalf("server counters: %v", p.Server)
	}
}

// TestPutBatchOp exercises the explicit PutBatch op (as opposed to
// server-side coalescing): applied count, then visibility via Get.
func TestPutBatchOp(t *testing.T) {
	s, h := startServer(t)
	c := dial(t, s)
	br := bufio.NewReader(c)

	req := wire.Request{Op: wire.OpPutBatch}
	for i := 0; i < 10; i++ {
		req.Records = append(req.Records, wire.Record{
			Key:   []byte(fmt.Sprintf("batch-%02d", i)),
			Value: []byte(fmt.Sprintf("bv-%02d", i)),
		})
	}
	if _, err := c.Write(frame(t, req)); err != nil {
		t.Fatalf("write batch: %v", err)
	}
	resp := readResp(t, br, wire.OpPutBatch)
	if resp.Status != wire.StatusOK || resp.Applied != 10 {
		t.Fatalf("batch: status %s applied %d, want OK/10", resp.Status, resp.Applied)
	}
	if h.Len() != 10 {
		t.Fatalf("store holds %d, want 10", h.Len())
	}
	if _, err := c.Write(frame(t, wire.Request{Op: wire.OpGet, Key: []byte("batch-07")})); err != nil {
		t.Fatalf("write get: %v", err)
	}
	if got := readResp(t, br, wire.OpGet); got.Status != wire.StatusOK || string(got.Value) != "bv-07" {
		t.Fatalf("get after batch: %s %q", got.Status, got.Value)
	}
}

// TestBurstThenMalformedFrame sends one burst of valid requests, more than
// a window of them, followed by a frame that does not decode: every valid
// request executes and answers in order, then one BadRequest comes back,
// then the connection closes.
func TestBurstThenMalformedFrame(t *testing.T) {
	_, h, l := startPipeServer(t)
	key := func(i int) []byte { return []byte(fmt.Sprintf("mf-%03d", i%40)) }
	var steps []step
	for i := 0; i < window+36; i++ {
		switch i % 3 {
		case 0:
			steps = append(steps, step{req: wire.Request{Op: wire.OpPut, Key: key(i), Value: []byte{byte(i)}}, wantStatus: wire.StatusOK})
		case 1:
			steps = append(steps, step{req: wire.Request{Op: wire.OpGet, Key: key(i - 1)}, wantStatus: wire.StatusOK, wantValue: []byte{byte(i - 1)}})
		default:
			steps = append(steps, step{req: wire.Request{Op: wire.OpGet, Key: []byte("mf-absent")}, wantStatus: wire.StatusNotFound})
		}
	}
	var stream []byte
	for _, st := range steps {
		stream = append(stream, frame(t, st.req)...)
	}
	stream = wire.AppendFrame(stream, []byte{wire.Version + 7, byte(wire.OpGet), 0, 1, 'k'})
	c := l.dial(t)
	go c.Write(stream) // a pipe Write returns once the server has read it all
	br := bufio.NewReader(c)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i, st := range steps {
		resp := readResp(t, br, st.req.Op)
		if resp.Status != st.wantStatus || (st.wantValue != nil && !bytes.Equal(resp.Value, st.wantValue)) {
			t.Fatalf("step %d (%s %q): %s %q, want %s %q", i, st.req.Op, st.req.Key, resp.Status, resp.Value, st.wantStatus, st.wantValue)
		}
	}
	if resp := readResp(t, br, wire.OpGet); resp.Status != wire.StatusBadRequest {
		t.Fatalf("after the valid requests: %s, want %s", resp.Status, wire.StatusBadRequest)
	}
	if _, err := readFrame(br); !errors.Is(err, io.EOF) {
		t.Fatalf("conn after the malformed frame: %v, want EOF", err)
	}
	if h.Len() != 34 {
		t.Fatalf("store holds %d records, want 34", h.Len())
	}
}

// TestBurstAcrossWindows sends one burst of 200 mixed Gets, Puts and
// Deletes, four windows' worth, over a few keys, so most requests read
// what an earlier one wrote; at every window boundary the last request
// of a window writes a key and the first of the next reads it back.
func TestBurstAcrossWindows(t *testing.T) {
	_, _, l := startPipeServer(t)
	rng := rand.New(rand.NewSource(7))
	model := map[string][]byte{}
	var steps []step
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("aw-%d", rng.Intn(6))
		op := []wire.Op{wire.OpGet, wire.OpPut, wire.OpDelete}[rng.Intn(3)]
		switch {
		case i%window == window-1:
			k, op = fmt.Sprintf("aw-edge-%d", i), wire.OpPut
		case i%window == 0 && i > 0:
			k, op = fmt.Sprintf("aw-edge-%d", i-1), wire.OpGet
		}
		st := step{req: wire.Request{Op: op, Key: []byte(k)}, wantStatus: wire.StatusOK}
		switch op {
		case wire.OpGet:
			if st.wantValue = model[k]; st.wantValue == nil {
				st.wantStatus = wire.StatusNotFound
			}
		case wire.OpPut:
			st.req.Value = []byte(fmt.Sprintf("v%03d", i))
			model[k] = st.req.Value
		case wire.OpDelete:
			if model[k] == nil {
				st.wantStatus = wire.StatusNotFound
			}
			delete(model, k)
		}
		steps = append(steps, st)
	}
	c := l.dial(t)
	runBurst(t, c, bufio.NewReader(c), steps)
}

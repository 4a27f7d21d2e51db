package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"github.com/casl-sdsu/hart/internal/core"
	"github.com/casl-sdsu/hart/internal/wire"
)

// startServer brings up a server on an ephemeral port over a fresh
// in-memory store and tears both down in the right order (drain the
// server, then close the store) at test end.
type testServer struct {
	*Server
	addr string
}

func startServer(t *testing.T, opts Options) (*testServer, *core.HART) {
	t.Helper()
	h, err := core.New(core.Options{})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	t.Cleanup(func() { h.Close() })
	s := New(h, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	t.Cleanup(func() {
		s.Shutdown()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
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

// frame encodes one request into its on-wire frame.
func frame(t *testing.T, req wire.Request) []byte {
	t.Helper()
	p, err := req.AppendRequest(nil)
	if err != nil {
		t.Fatalf("encode %s: %v", req.Op, err)
	}
	return wire.AppendFrame(nil, p)
}

// readResp reads and decodes one response for op.
func readResp(t *testing.T, br *bufio.Reader, op wire.Op) wire.Response {
	t.Helper()
	p, err := wire.ReadFrame(br, nil)
	if err != nil {
		t.Fatalf("read %s response frame: %v", op, err)
	}
	resp, err := wire.DecodeResponse(p, op)
	if err != nil {
		t.Fatalf("decode %s response: %v", op, err)
	}
	return resp
}

// TestPutCoalescing is the batching contract from the issue: K Puts
// kept in flight on one connection must reach the store in fewer than K
// publication units — observable as ops.put (one republication each)
// plus ops.put_batch (one republication per shard group) summing below
// K, while every record still lands (ops.put + ops.put_batch_records
// == K and the store holds K keys). Coalescing is opportunistic (the
// gather never blocks), so a scheduling fluke where the executor keeps
// pace with the reader is legal; the test retries on a fresh store
// before declaring the mechanism broken.
func TestPutCoalescing(t *testing.T) {
	const K = 512
	for attempt := 0; attempt < 3; attempt++ {
		s, h := startServer(t, Options{QueueDepth: K})
		c := dial(t, s)

		var stream []byte
		for i := 0; i < K; i++ {
			stream = append(stream, frame(t, wire.Request{
				Op:    wire.OpPut,
				Key:   []byte(fmt.Sprintf("coalesce-%04d", i)),
				Value: []byte(fmt.Sprintf("value-%04d", i)),
			})...)
		}
		// One write call: the whole burst is in flight before any
		// response is consumed, so the exec queue actually fills.
		if _, err := c.Write(stream); err != nil {
			t.Fatalf("write burst: %v", err)
		}
		br := bufio.NewReader(c)
		for i := 0; i < K; i++ {
			if resp := readResp(t, br, wire.OpPut); resp.Status != wire.StatusOK {
				t.Fatalf("put %d: status %s (%s)", i, resp.Status, resp.Msg)
			}
		}

		m := h.Metrics().Counters
		singles, batches := m["ops.put"], m["ops.put_batch"]
		batched := m["ops.put_batch_records"]
		if singles+batched != K {
			t.Fatalf("records applied: %d singles + %d batched != %d", singles, batched, K)
		}
		if h.Len() != K {
			t.Fatalf("store holds %d records, want %d", h.Len(), K)
		}
		if singles+batches < K {
			if sm := s.Metrics(); sm.BatchesFormed == 0 || sm.PutsCoalesced == 0 {
				t.Fatalf("store saw batches but server counters disagree: %+v", sm)
			}
			t.Logf("attempt %d: %d puts → %d singles + %d batches (%d records coalesced)",
				attempt, K, singles, batches, batched)
			return
		}
		t.Logf("attempt %d: no coalescing (%d singles, %d batches); retrying", attempt, singles, batches)
	}
	t.Fatal("no coalescing in 3 attempts: K in-flight Puts produced K publications")
}

// TestResponseOrder pipelines a mixed op sequence in one burst and
// asserts each response comes back in request order, carrying the
// payload only its position in the sequence could produce. A Put run
// is deliberately interrupted by an invalid Put, a Delete miss, a Get
// and a Scan so the order crosses every coalescing boundary case.
func TestResponseOrder(t *testing.T) {
	s, h := startServer(t, Options{})
	c := dial(t, s)

	val := func(i int) []byte { return []byte(fmt.Sprintf("v-%03d", i)) }
	key := func(i int) []byte { return []byte(fmt.Sprintf("ord-%03d", i)) }

	type step struct {
		req        wire.Request
		wantStatus wire.Status
		wantValue  []byte
	}
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

	var stream []byte
	for _, st := range steps {
		stream = append(stream, frame(t, st.req)...)
	}
	if _, err := c.Write(stream); err != nil {
		t.Fatalf("write burst: %v", err)
	}
	br := bufio.NewReader(c)
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
	s, _ := startServer(t, Options{})

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
			p, err := wire.ReadFrame(br, nil)
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
			if _, err := wire.ReadFrame(br, nil); !errors.Is(err, io.EOF) {
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
		p, err := wire.ReadFrame(br, nil)
		if err != nil {
			t.Fatalf("want an error response before close, got %v", err)
		}
		if resp, _ := wire.DecodeResponse(p, wire.OpGet); resp.Status != wire.StatusBadRequest {
			t.Fatalf("status %s, want %s", resp.Status, wire.StatusBadRequest)
		}
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := wire.ReadFrame(br, nil); !errors.Is(err, io.EOF) {
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
	s, h := startServer(t, Options{QueueDepth: K})
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
			p, err := wire.ReadFrame(br, nil)
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

// TestStatsOp checks the Stats document: store-level record counts and
// counters plus the server's own connection/coalescing counters.
func TestStatsOp(t *testing.T) {
	s, _ := startServer(t, Options{})
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
	s, h := startServer(t, Options{})
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

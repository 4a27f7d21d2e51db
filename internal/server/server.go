// Package server implements hartd's TCP service layer over one shared
// HART store, speaking the internal/wire protocol.
//
// Each connection is one goroutine looping over bursts: it reads what the
// socket has, executes every complete request in it in arrival order, and
// writes their responses with one call. A burst is decoded and executed in
// windows of up to 64 requests, and each window's keys are first walked
// down the index together (core.Prefetch), so the cache misses of their
// lookups overlap instead of queueing one behind another. A pipelining
// client thus costs one read and one write per burst rather than per
// request, and consecutive valid Puts of a burst are coalesced into a
// single core.PutBatch call, which takes each shard's lock and seqlock
// section once per group of records rather than once per request
// (DESIGN.md §12). Responses are always written in request order —
// prefetching and coalescing change how work is applied, never what the
// client observes.
//
// A connection holds one input buffer (grown past 64 KiB only for a frame
// that needs it, so at most MaxFrame+4 bytes), one window of decoded
// requests, which alias the input, and one output buffer, which is written
// out whenever it reaches outFlush, so it never holds more than 64 KiB
// plus one response (at most a Scan page).
//
// Acknowledgement contract: a response with wire.StatusOK is sent only
// after the operation's commit point has persisted (Put/PutBatch return
// with their records durable; Delete with its leaf bit reset). A crash
// of the daemon can therefore lose only unacknowledged writes — the
// invariant the end-to-end kill tests assert.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/casl-sdsu/hart/internal/core"
	"github.com/casl-sdsu/hart/internal/wire"
)

const (
	// closeLinger bounds the post-drain wait for a peer to consume its
	// last responses and close, and on Shutdown the wait for a peer to
	// take a pending write; a peer that keeps the connection busy past it
	// is cut off (and may lose unconsumed responses to the reset).
	closeLinger = time.Second
	// batchMax caps how many consecutive Puts one PutBatch coalesces.
	batchMax = 256
	// window is how many decoded requests a burst holds at once, and how
	// many keys one core.Prefetch walks together.
	window = 64
	// outFlush is how many response bytes a burst buffers before writing
	// them out early.
	outFlush = 64 << 10
)

// Options configures a Server.
type Options struct {
	// Logf receives connection-level diagnostics (nil = silent).
	Logf func(format string, args ...any)
}

// Metrics are the server's own counters, exposed through the Stats op
// beside the store's obs snapshot, and by hartd's /metrics.
type Metrics struct {
	ConnsAccepted  uint64
	ConnsActive    uint64
	Requests       uint64
	PutsCoalesced  uint64 // Puts applied through a coalesced batch
	BatchesFormed  uint64 // coalesced batches flushed to PutBatch
	ProtocolErrors uint64
}

// Server serves the wire protocol over one HART store.
type Server struct {
	h    *core.HART
	opts Options

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}

	done     chan struct{}
	shutting atomic.Bool
	wg       sync.WaitGroup

	connsAccepted  atomic.Uint64
	connsActive    atomic.Int64
	requests       atomic.Uint64
	putsCoalesced  atomic.Uint64
	batchesFormed  atomic.Uint64
	protocolErrors atomic.Uint64
}

// New returns a server over h. The server does not own h: Shutdown
// drains connections but leaves closing the store to the caller, so the
// daemon controls the drain → Close → clean-flag ordering.
func New(h *core.HART, opts Options) *Server {
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	return &Server{
		h:     h,
		opts:  opts,
		conns: map[net.Conn]struct{}{},
		done:  make(chan struct{}),
	}
}

// Metrics returns the server's counter snapshot.
func (s *Server) Metrics() Metrics {
	return Metrics{
		ConnsAccepted:  s.connsAccepted.Load(),
		ConnsActive:    uint64(s.connsActive.Load()),
		Requests:       s.requests.Load(),
		PutsCoalesced:  s.putsCoalesced.Load(),
		BatchesFormed:  s.batchesFormed.Load(),
		ProtocolErrors: s.protocolErrors.Load(),
	}
}

// Counters returns m by name: the Stats op's server map, and what hartd's
// /metrics exports under "server.".
func (m Metrics) Counters() map[string]uint64 {
	return map[string]uint64{
		"conns_accepted":  m.ConnsAccepted,
		"conns_active":    m.ConnsActive,
		"requests":        m.Requests,
		"puts_coalesced":  m.PutsCoalesced,
		"batches_formed":  m.BatchesFormed,
		"protocol_errors": m.ProtocolErrors,
	}
}

// Addr returns the listener's address (the resolved port for ":0"
// listeners), or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown (or a listener error)
// and returns after every connection has drained.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	shutting := s.shutting.Load()
	s.mu.Unlock()
	if shutting {
		// Shutdown won the race before the listener was registered; it
		// could not close it, so close here and drain as usual.
		ln.Close()
	}
	for {
		c, err := ln.Accept()
		if err != nil {
			s.wg.Wait()
			if s.shutting.Load() {
				return nil
			}
			return err
		}
		if !s.track(c) {
			c.Close()
			continue
		}
		s.connsAccepted.Add(1)
		s.connsActive.Add(1)
		s.wg.Add(1)
		go s.handleConn(c)
	}
}

// Shutdown stops accepting, nudges every connection off its blocking
// read, waits for the requests each has already read to execute and
// their responses to be written, and returns once every connection has
// closed. A peer that has stopped reading cannot hold it up: writes get
// a deadline closeLinger away, and a connection whose write fails closes
// with its responses unsent. The store itself is untouched — callers
// close it after Shutdown so the superblock's clean flag is the last
// thing written.
func (s *Server) Shutdown() error {
	if s.shutting.Swap(true) {
		return nil
	}
	close(s.done)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		// Expire the blocking read: the connection treats errors after
		// the done signal as a clean end-of-stream, so requests already
		// read still execute and respond before the conn closes.
		c.SetReadDeadline(time.Now())
		c.SetWriteDeadline(time.Now().Add(closeLinger))
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// track registers a live connection; it refuses (false) once shutdown
// has begun, closing the race between Accept and Shutdown's sweep.
func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shutting.Load() {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

// untrack removes a closed connection.
func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// conn is one connection's state, owned by its handleConn goroutine.
type conn struct {
	s    *Server
	nc   net.Conn
	reqs []wire.Request // the window being executed
	keys [][]byte       // its Get, Put and Delete keys
	puts []core.Record  // the run of consecutive valid Puts not yet applied
	val  []byte         // Get's value buffer
	resp []byte         // one response payload
	out  []byte         // framed responses not yet written
	werr error          // the first write error, which ends the connection
}

// handleConn serves one connection until the peer closes it, a protocol
// or write error, or Shutdown. Each pass of the loop is one burst: read
// what the socket has, run every complete request in it, write the
// responses. Decoded requests alias in, so a burst is fully executed
// before in is compacted for the next read.
func (s *Server) handleConn(nc net.Conn) {
	defer s.wg.Done()
	defer s.connsActive.Add(-1)
	defer s.untrack(nc)
	defer nc.Close()
	defer func() {
		// Graceful close: writing the responses is not enough — if unread
		// bytes remain in the kernel receive buffer (a pipelining client
		// cut off mid-burst by Shutdown), Close sends RST, which clobbers
		// written-but-unconsumed responses on the peer's side. Half-close
		// instead (FIN after the last response), then give the peer a
		// bounded moment to consume and close its end.
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		nc.SetReadDeadline(time.Now().Add(closeLinger))
		io.Copy(io.Discard, nc)
	}()

	c := &conn{
		s:    s,
		nc:   nc,
		reqs: make([]wire.Request, 0, window),
		keys: make([][]byte, 0, window),
	}
	in := make([]byte, 0, 64<<10)
	for {
		m, rerr := nc.Read(in[len(in):cap(in)])
		in = in[:len(in)+m]
		off, need, err := c.burst(in)
		in = in[:copy(in, in[off:])]
		if need > cap(in) {
			in = append(make([]byte, 0, need), in...)
		}
		if err == nil && rerr != nil {
			if errors.Is(rerr, io.EOF) && len(in) > 0 {
				err = wire.ErrTruncated
			} else if !s.isCleanEOF(rerr) {
				err = rerr
			}
		}
		if err != nil {
			// Framing is unrecoverable: report once, then drop the conn.
			s.protocolErrors.Add(1)
			c.respond(wire.OpGet, wire.Response{Status: wire.StatusBadRequest, Msg: err.Error()})
			s.opts.Logf("hartd: %s: %v", nc.RemoteAddr(), err)
		}
		c.flush()
		if err != nil || rerr != nil || c.werr != nil {
			return
		}
	}
}

// isCleanEOF reports whether a read error just means "no more requests"
// — client closed its end, or Shutdown expired the read deadline.
func (s *Server) isCleanEOF(err error) bool {
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		select {
		case <-s.done:
			return true
		default:
			return false
		}
	}
	return false
}

// burst executes every complete request in b in arrival order, one
// window at a time: it decodes up to window requests, hands their keys to
// core.Prefetch so that their lookups' cache misses overlap, then runs
// them in order. It returns how many bytes the decoded requests took, how
// long the buffer must be to hold the next frame whole, and the framing
// or decode error that ends the connection, if any; the requests before
// that error still run. A valid Put is held back to join a run of
// consecutive valid Puts, across windows; anything else — an invalid Put
// included — ends the run, which is applied before it, and so does the
// end of the burst.
func (c *conn) burst(b []byte) (off, need int, err error) {
	for c.werr == nil {
		c.reqs, c.keys = c.reqs[:0], c.keys[:0]
		for len(c.reqs) < window {
			var p []byte
			if p, need, err = wire.SplitFrame(b[off:]); err != nil || need > len(b)-off {
				break
			}
			var req wire.Request
			if req, err = wire.DecodeRequest(p); err != nil {
				break
			}
			off += need
			c.reqs = append(c.reqs, req)
			if req.Op == wire.OpGet || req.Op == wire.OpPut || req.Op == wire.OpDelete {
				c.keys = append(c.keys, req.Key)
			}
		}
		if len(c.keys) >= 2 {
			c.s.h.Prefetch(c.keys)
		}
		for i := range c.reqs {
			if c.werr != nil {
				break
			}
			c.run(&c.reqs[i])
		}
		if len(c.reqs) < window { // out of complete frames, or an error
			break
		}
	}
	c.applyPuts()
	return off, need, err
}

// run executes one request, or holds a valid Put back for its run.
func (c *conn) run(req *wire.Request) {
	c.s.requests.Add(1)
	if req.Op == wire.OpPut && validatePut(req) == wire.StatusOK {
		if c.puts = append(c.puts, core.Record{Key: req.Key, Value: req.Value}); len(c.puts) == batchMax {
			c.applyPuts()
		}
		return
	}
	c.applyPuts()
	c.respond(req.Op, c.execute(req))
}

// applyPuts applies the pending run of pre-validated Puts and responds
// to each, in order. A single Put goes through h.Put; two or more become
// one core.PutBatch — one shard lock and seqlock section per shard group
// instead of one per record. Acks are encoded only after the call
// returns, by which point every applied record is durable.
func (c *conn) applyPuts() {
	switch len(c.puts) {
	case 0:
		return
	case 1:
		c.respond(wire.OpPut, responseFor(c.s.h.Put(c.puts[0].Key, c.puts[0].Value)))
	default:
		c.s.batchesFormed.Add(1)
		c.s.putsCoalesced.Add(uint64(len(c.puts)))
		_, err := c.s.h.PutBatch(c.puts)
		// PutBatch applies records in sorted key order, so on error the
		// applied count does not identify which *submitted* requests
		// landed. Err on the safe side of the ack contract: every Put in
		// the batch reports the failure (an ack must imply durability; a
		// failure report for a record that did land is harmless).
		resp := responseFor(err)
		for range c.puts {
			c.respond(wire.OpPut, resp)
		}
	}
	c.puts = c.puts[:0]
}

// respond appends resp's frame to the output, first writing out what is
// buffered once that has reached outFlush.
func (c *conn) respond(op wire.Op, resp wire.Response) {
	if len(c.out) >= outFlush {
		c.flush()
	}
	p, err := resp.AppendResponse(c.resp[:0], op)
	if err != nil {
		// Encoding can only fail on malformed server-built responses
		// (oversized scan page keys, unknown status) — a bug, but the
		// connection must still get a parseable answer.
		p, _ = (&wire.Response{
			Status: wire.StatusServerError,
			Msg:    fmt.Sprintf("response encoding failed: %v", err),
		}).AppendResponse(c.resp[:0], op)
	}
	c.resp = p
	c.out = wire.AppendFrame(c.out, p)
}

// flush writes the buffered responses with one call. After a write error
// nothing more is written.
func (c *conn) flush() {
	if len(c.out) > 0 && c.werr == nil {
		_, c.werr = c.nc.Write(c.out)
	}
	c.out = c.out[:0]
}

// execute applies one non-coalesced request and builds its response.
func (c *conn) execute(req *wire.Request) wire.Response {
	h := c.s.h
	switch req.Op {
	case wire.OpGet:
		v, ok := h.GetInto(req.Key, c.val[:0])
		if !ok {
			return wire.Response{Status: wire.StatusNotFound, Msg: wire.StatusNotFound.String()}
		}
		c.val = v
		return wire.Response{Status: wire.StatusOK, Value: v}
	case wire.OpPut:
		if st := validatePut(req); st != wire.StatusOK {
			return wire.Response{Status: st, Msg: st.String()}
		}
		return responseFor(h.Put(req.Key, req.Value))
	case wire.OpDelete:
		return responseFor(h.Delete(req.Key))
	case wire.OpScan:
		return c.s.execScan(req)
	case wire.OpPutBatch:
		recs := make([]core.Record, len(req.Records))
		for i, r := range req.Records {
			recs[i] = core.Record{Key: r.Key, Value: r.Value}
		}
		n, err := h.PutBatch(recs)
		resp := responseFor(err)
		resp.Applied = uint32(n)
		return resp
	case wire.OpStats:
		return c.s.execStats()
	}
	return wire.Response{Status: wire.StatusBadRequest, Msg: wire.ErrBadOp.Error()}
}

// execScan runs one bounded scan page.
func (s *Server) execScan(req *wire.Request) wire.Response {
	limit := int(req.Limit)
	if limit <= 0 || limit > wire.MaxScanPage {
		limit = wire.MaxScanPage
	}
	resp := wire.Response{Status: wire.StatusOK}
	// Collect one past the limit to learn whether the range continues.
	s.h.Scan(req.Start, req.End, func(k, v []byte) bool {
		if len(resp.Records) == limit {
			resp.More = true
			return false
		}
		resp.Records = append(resp.Records, wire.Record{Key: k, Value: v})
		return true
	})
	return resp
}

// execStats marshals the store's metrics snapshot plus the server's own
// counters into the Stats response JSON.
func (s *Server) execStats() wire.Response {
	m := s.h.Metrics()
	p := wire.StatsPayload{
		Records:  s.h.Len(),
		ARTs:     s.h.NumARTs(),
		Counters: m.Counters,
		Hists:    map[string]wire.HistSummary{},
	}
	for name, h := range m.Hists {
		p.Hists[name] = wire.HistSummary{
			Count: h.Count, MeanNs: h.MeanNs,
			P50Ns: h.P50Ns, P95Ns: h.P95Ns, P99Ns: h.P99Ns, MaxNs: h.MaxNs,
		}
	}
	p.Server = s.Metrics().Counters()
	js, err := json.Marshal(p)
	if err != nil {
		return wire.Response{Status: wire.StatusServerError, Msg: err.Error()}
	}
	return wire.Response{Status: wire.StatusOK, Value: js}
}

// validatePut screens a Put before it may join a coalesced batch:
// PutBatch validates all-or-nothing, so one bad record must not poison
// its neighbours' acks.
func validatePut(req *wire.Request) wire.Status {
	switch {
	case len(req.Key) == 0:
		return wire.StatusBadRequest
	case len(req.Key) > core.MaxKeyLen:
		return wire.StatusKeyTooLong
	case len(req.Value) == 0:
		return wire.StatusBadRequest
	case len(req.Value) > core.MaxValueLen:
		return wire.StatusValueTooLong
	}
	return wire.StatusOK
}

// responseFor maps a store error to its wire response.
func responseFor(err error) wire.Response {
	if err == nil {
		return wire.Response{Status: wire.StatusOK}
	}
	st := wire.StatusServerError
	switch {
	case errors.Is(err, core.ErrNotFound):
		st = wire.StatusNotFound
	case errors.Is(err, core.ErrKeyTooLong):
		st = wire.StatusKeyTooLong
	case errors.Is(err, core.ErrValueTooLong):
		st = wire.StatusValueTooLong
	case errors.Is(err, core.ErrEmptyKey), errors.Is(err, core.ErrEmptyValue):
		st = wire.StatusBadRequest
	case errors.Is(err, core.ErrClosed):
		st = wire.StatusClosed
	}
	return wire.Response{Status: st, Msg: err.Error()}
}

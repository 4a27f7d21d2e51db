// Package server implements hartd's TCP service layer: each accepted
// connection runs a three-stage pipeline (read+decode → execute →
// encode+respond) over one shared HART store, speaking the
// internal/wire protocol.
//
// Pipelining is the point of the design. A client that streams many
// requests without waiting gets them decoded while earlier ones
// execute and responded to while later ones decode; and consecutive
// in-flight Puts on one connection are coalesced into a single
// core.PutBatch call, so the wire path rides the batched copy-on-write
// publication (DESIGN.md §12) instead of republishing the shard tree
// once per request. Responses are always written in request order —
// coalescing changes how work is applied, never what the client
// observes.
//
// Acknowledgement contract: a response with wire.StatusOK is sent only
// after the operation's commit point has persisted (Put/PutBatch return
// with their records durable; Delete with its leaf bit reset). A crash
// of the daemon can therefore lose only unacknowledged writes — the
// invariant the end-to-end kill tests assert.
package server

import (
	"bufio"
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

// closeLinger bounds the post-drain wait for a peer to consume its last
// responses and close; a peer that keeps the connection busy past it is
// cut off (and may lose unconsumed responses to the reset).
const closeLinger = time.Second

// Options configures a Server.
type Options struct {
	// BatchMax caps how many consecutive in-flight Puts one connection
	// coalesces into a single PutBatch (default 256).
	BatchMax int
	// QueueDepth is the per-connection pipeline depth: how many decoded
	// requests (and encoded responses) may sit between the stages
	// (default 256). A client keeping more than QueueDepth requests in
	// flight is flow-controlled by TCP, not errored.
	QueueDepth int
	// Logf receives connection-level diagnostics (nil = silent).
	Logf func(format string, args ...any)
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.BatchMax == 0 {
		o.BatchMax = 256
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 256
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Metrics are the server's own counters, exposed through the Stats op
// beside the store's obs snapshot.
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
	return &Server{
		h:     h,
		opts:  opts.withDefaults(),
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

// Shutdown stops accepting, nudges every connection's reader off its
// blocking read, waits for all queued requests to execute and their
// responses to flush, and returns once every connection has closed.
// The store itself is untouched — callers close it after Shutdown so
// the superblock's clean flag is the last thing written.
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
		// Expire the blocking read: the reader treats errors after the
		// done signal as a clean end-of-stream, so requests already
		// received still execute and respond before the conn closes.
		c.SetReadDeadline(time.Now())
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

// connItem is one unit handed from the read stage to the execute stage:
// a decoded request, or the decode error that ends the connection.
type connItem struct {
	req       wire.Request
	decodeErr error
}

// handleConn runs one connection's pipeline. The calling goroutine is
// the read stage; execute and respond stages run alongside it. Stage
// channels close downstream in order, so every received request is
// executed and every produced response flushed before the conn closes.
func (s *Server) handleConn(c net.Conn) {
	defer s.wg.Done()
	defer s.connsActive.Add(-1)
	defer s.untrack(c)
	defer c.Close()

	execCh := make(chan connItem, s.opts.QueueDepth)
	writeCh := make(chan []byte, s.opts.QueueDepth)

	var stages sync.WaitGroup
	stages.Add(2)
	go func() {
		defer stages.Done()
		s.execLoop(execCh, writeCh)
	}()
	go func() {
		defer stages.Done()
		s.writeLoop(c, writeCh)
	}()

	defer func() {
		// Graceful close: flushing responses is not enough — if unread
		// bytes remain in the kernel receive buffer (a pipelining client
		// cut off mid-burst by Shutdown), Close sends RST, which
		// clobbers flushed-but-unconsumed responses on the peer's side.
		// Half-close instead (FIN after the last response), then give
		// the peer a bounded moment to consume and close its end.
		if tc, ok := c.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		c.SetReadDeadline(time.Now().Add(closeLinger))
		io.Copy(io.Discard, c)
	}()

	br := bufio.NewReaderSize(c, 64<<10)
	for {
		// Each frame gets its own buffer: the decoded request aliases it
		// and crosses into the execute stage, which runs concurrently
		// with the next read.
		payload, err := wire.ReadFrame(br, nil)
		if err != nil {
			if !s.isCleanEOF(err) {
				// Framing is unrecoverable: report once, then drop the conn.
				s.protocolErrors.Add(1)
				execCh <- connItem{decodeErr: err}
				s.opts.Logf("hartd: %s: read: %v", c.RemoteAddr(), err)
			}
			break
		}
		req, err := wire.DecodeRequest(payload)
		if err != nil {
			s.protocolErrors.Add(1)
			execCh <- connItem{decodeErr: err}
			s.opts.Logf("hartd: %s: decode: %v", c.RemoteAddr(), err)
			break
		}
		s.requests.Add(1)
		execCh <- connItem{req: req}
	}
	close(execCh)
	stages.Wait()
}

// isCleanEOF reports whether a read error just means "no more requests"
// — client closed its end, or Shutdown expired the read deadline.
func (s *Server) isCleanEOF(err error) bool {
	if errors.Is(err, net.ErrClosed) || err.Error() == "EOF" {
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

// execLoop is the execute stage: it applies requests against the store
// in arrival order and emits one encoded response frame per request, in
// the same order. When a valid Put arrives, every immediately available
// consecutive valid Put behind it in the queue is gathered (without
// blocking — an idle connection's single Put executes alone) into one
// coalesced batch; the first non-Put or invalid item ends the gather
// and is handled right after the batch, preserving order.
func (s *Server) execLoop(execCh <-chan connItem, writeCh chan<- []byte) {
	defer close(writeCh)
	maxVal := s.maxValueLen()
	var batch []wire.Request
	for item := range execCh {
		if item.decodeErr != nil {
			writeCh <- encodeResponse(wire.OpGet, &wire.Response{
				Status: wire.StatusBadRequest, Msg: item.decodeErr.Error(),
			})
			continue
		}
		if item.req.Op != wire.OpPut || s.validatePut(&item.req, maxVal) != wire.StatusOK {
			writeCh <- encodeResponse(item.req.Op, s.execute(&item.req, maxVal))
			continue
		}
		batch = append(batch[:0], item.req)
		var tail *connItem
	gather:
		for len(batch) < s.opts.BatchMax {
			select {
			case it, ok := <-execCh:
				if !ok {
					break gather
				}
				if it.decodeErr == nil && it.req.Op == wire.OpPut &&
					s.validatePut(&it.req, maxVal) == wire.StatusOK {
					batch = append(batch, it.req)
					continue
				}
				// Invalid Puts terminate the gather rather than joining it:
				// PutBatch validates all-or-nothing, so one bad record must
				// not poison its neighbours' acks.
				tail = &it
				break gather
			default:
				break gather
			}
		}
		s.applyPuts(batch, writeCh)
		if tail != nil {
			if tail.decodeErr != nil {
				writeCh <- encodeResponse(wire.OpGet, &wire.Response{
					Status: wire.StatusBadRequest, Msg: tail.decodeErr.Error(),
				})
			} else {
				writeCh <- encodeResponse(tail.req.Op, s.execute(&tail.req, maxVal))
			}
		}
	}
}

// applyPuts applies one coalesced run of pre-validated Puts and
// responds per request, in order. A single Put goes through h.Put; two
// or more become one core.PutBatch — one shard-tree republication per
// shard group instead of one per record. Acks are written only after
// the call returns, by which point every applied record is durable.
func (s *Server) applyPuts(batch []wire.Request, writeCh chan<- []byte) {
	if len(batch) == 1 {
		writeCh <- encodeResponse(wire.OpPut, responseFor(s.h.Put(batch[0].Key, batch[0].Value)))
		return
	}
	recs := make([]core.Record, len(batch))
	for i := range batch {
		recs[i] = core.Record{Key: batch[i].Key, Value: batch[i].Value}
	}
	s.batchesFormed.Add(1)
	s.putsCoalesced.Add(uint64(len(batch)))
	_, err := s.h.PutBatch(recs)
	// PutBatch applies records in sorted key order, so on error the
	// applied count does not identify which *submitted* requests landed.
	// Err on the safe side of the ack contract: every Put in the batch
	// reports the failure (an ack must imply durability; a failure
	// report for a record that did land is harmless).
	resp := encodeResponse(wire.OpPut, responseFor(err))
	for range batch {
		writeCh <- resp
	}
}

// execute applies one non-coalesced request and builds its response.
func (s *Server) execute(req *wire.Request, maxVal int) *wire.Response {
	switch req.Op {
	case wire.OpGet:
		v, ok := s.h.Get(req.Key)
		if !ok {
			return &wire.Response{Status: wire.StatusNotFound, Msg: wire.StatusNotFound.String()}
		}
		return &wire.Response{Status: wire.StatusOK, Value: v}
	case wire.OpPut:
		if st := s.validatePut(req, maxVal); st != wire.StatusOK {
			return &wire.Response{Status: st, Msg: st.String()}
		}
		return responseFor(s.h.Put(req.Key, req.Value))
	case wire.OpDelete:
		return responseFor(s.h.Delete(req.Key))
	case wire.OpScan:
		return s.execScan(req)
	case wire.OpPutBatch:
		recs := make([]core.Record, len(req.Records))
		for i, r := range req.Records {
			recs[i] = core.Record{Key: r.Key, Value: r.Value}
		}
		n, err := s.h.PutBatch(recs)
		resp := responseFor(err)
		resp.Applied = uint32(n)
		return resp
	case wire.OpStats:
		return s.execStats()
	}
	return &wire.Response{Status: wire.StatusBadRequest, Msg: wire.ErrBadOp.Error()}
}

// execScan runs one bounded scan page.
func (s *Server) execScan(req *wire.Request) *wire.Response {
	limit := int(req.Limit)
	if limit <= 0 || limit > wire.MaxScanPage {
		limit = wire.MaxScanPage
	}
	resp := &wire.Response{Status: wire.StatusOK}
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
func (s *Server) execStats() *wire.Response {
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
	sm := s.Metrics()
	p.Server = map[string]uint64{
		"conns_accepted":  sm.ConnsAccepted,
		"conns_active":    sm.ConnsActive,
		"requests":        sm.Requests,
		"puts_coalesced":  sm.PutsCoalesced,
		"batches_formed":  sm.BatchesFormed,
		"protocol_errors": sm.ProtocolErrors,
	}
	js, err := json.Marshal(p)
	if err != nil {
		return &wire.Response{Status: wire.StatusServerError, Msg: err.Error()}
	}
	return &wire.Response{Status: wire.StatusOK, Value: js}
}

// validatePut screens a Put before it may join a coalesced batch:
// PutBatch validates all-or-nothing, so one bad record must not poison
// its neighbours' acks.
func (s *Server) validatePut(req *wire.Request, maxVal int) wire.Status {
	switch {
	case len(req.Key) == 0:
		return wire.StatusBadRequest
	case len(req.Key) > core.MaxKeyLen:
		return wire.StatusKeyTooLong
	case len(req.Value) == 0:
		return wire.StatusBadRequest
	case len(req.Value) > maxVal:
		return wire.StatusValueTooLong
	}
	return wire.StatusOK
}

// maxValueLen is the store's largest storable value.
func (s *Server) maxValueLen() int {
	classes := s.h.Options().ValueClasses
	return int(classes[len(classes)-1])
}

// responseFor maps a store error to its wire response.
func responseFor(err error) *wire.Response {
	if err == nil {
		return &wire.Response{Status: wire.StatusOK}
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
	return &wire.Response{Status: st, Msg: err.Error()}
}

// encodeResponse renders a response into one framed byte slice.
func encodeResponse(op wire.Op, resp *wire.Response) []byte {
	payload, err := resp.AppendResponse(nil, op)
	if err != nil {
		// Encoding can only fail on malformed server-built responses
		// (oversized scan page keys, unknown status) — a bug, but the
		// connection must still get a parseable answer.
		payload, _ = (&wire.Response{
			Status: wire.StatusServerError,
			Msg:    fmt.Sprintf("response encoding failed: %v", err),
		}).AppendResponse(nil, op)
	}
	return wire.AppendFrame(nil, payload)
}

// writeLoop is the respond stage: it writes response frames in order,
// flushing whenever the queue momentarily drains (one syscall per burst
// rather than per response). On a write error it keeps draining the
// channel so the execute stage never blocks against a dead peer.
func (s *Server) writeLoop(c net.Conn, writeCh <-chan []byte) {
	bw := bufio.NewWriterSize(c, 64<<10)
	broken := false
	for frame := range writeCh {
		if broken {
			continue
		}
		if _, err := bw.Write(frame); err != nil {
			broken = true
			continue
		}
		if len(writeCh) == 0 {
			if err := bw.Flush(); err != nil {
				broken = true
			}
		}
	}
	if !broken {
		bw.Flush()
	}
}

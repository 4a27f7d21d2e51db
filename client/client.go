// Package client is the public Go client for hartd, the HART network
// daemon. It speaks the length-prefixed binary protocol from
// internal/wire over one TCP connection and pipelines naturally: a
// request is written and enqueued under a short lock, then the caller
// waits for its own pending entry while other goroutines write theirs —
// many requests stay in flight at once, and the connection's reader
// goroutine matches responses back in FIFO order (the protocol has no
// request IDs; ordering is the contract).
//
// For explicit batching — the client-side half of the server's Put
// coalescing — use Pipeline: queue requests locally, Exec writes them
// as one burst (one write, one pending entry, one wake-up), and the
// server reads them as one burst of its own, whose consecutive Puts it
// coalesces into one PutBatch.
//
// An acknowledged write (nil error from Put, PutBatch, Delete) is
// durable on the server at the time the call returns; a connection or
// server failure can only lose writes that had not yet been
// acknowledged.
package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/casl-sdsu/hart/internal/wire"
)

// Exported errors, matched from response status codes with errors.Is.
var (
	// ErrNotFound reports a missing key (Get or Delete).
	ErrNotFound = errors.New("hart: not found")
	// ErrBadRequest reports a request the server refused to parse or
	// validate (empty key/value, malformed frame).
	ErrBadRequest = errors.New("hart: bad request")
	// ErrKeyTooLong reports a key above the server's maximum (24 bytes).
	ErrKeyTooLong = errors.New("hart: key too long")
	// ErrValueTooLong reports a value above the largest value class.
	ErrValueTooLong = errors.New("hart: value too long")
	// ErrStoreClosed reports operations against a closing server.
	ErrStoreClosed = errors.New("hart: store closed")
	// ErrServer wraps server-side failures (allocation, I/O).
	ErrServer = errors.New("hart: server error")
	// ErrConnClosed reports use of a client whose connection is gone;
	// calls that were in flight when it died also fail with it (their
	// fate on the server is unknown — unacknowledged means possibly
	// not durable, not certainly lost).
	ErrConnClosed = errors.New("hart: connection closed")
)

// Record is one key/value pair for PutBatch and Scan results.
type Record struct {
	Key   []byte
	Value []byte
}

// Hist is one latency histogram summary from Stats.
type Hist struct {
	Count  uint64  `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  uint64  `json:"p50_ns"`
	P95Ns  uint64  `json:"p95_ns"`
	P99Ns  uint64  `json:"p99_ns"`
	MaxNs  uint64  `json:"max_ns"`
}

// Stats is the server's statistics document: store-level record and
// shard counts, the store's observability counters and histograms, and
// the daemon's own connection/pipelining counters.
type Stats struct {
	Records  int               `json:"records"`
	ARTs     int               `json:"arts"`
	Counters map[string]uint64 `json:"counters"`
	Hists    map[string]Hist   `json:"hists,omitempty"`
	Server   map[string]uint64 `json:"server,omitempty"`
}

// entry is one pending burst of n ≥ 1 requests, written back to back:
// their ops and the slots their responses decode into. The connection's
// reader fills the slots in order and signals done once — after the last
// response, or on a transport failure — and touches the entry no more.
type entry struct {
	ops   []wire.Op
	resps []wire.Response
	got   int   // responses decoded so far
	err   error // the transport failure that cut the entry short
	// arena holds every byte of the entry's responses that outlives the
	// read buffer: values, Scan keys, the Stats document. A full arena is
	// replaced, never copied, so slices already handed out stay valid.
	arena []byte
	kept  int // bytes copied into the arena, over all its chunks
	done  chan struct{}

	op   [1]wire.Op // the backing of an entry of one
	resp [1]wire.Response
}

// single returns an entry of one request.
func single(op wire.Op) *entry {
	e := &entry{done: make(chan struct{}, 1)}
	e.op[0] = op
	e.ops, e.resps = e.op[:], e.resp[:]
	return e
}

// decode resolves the entry's next slot from one response payload and
// copies what the response keeps into the arena, in one chunk.
func (e *entry) decode(p []byte) error {
	resp, err := wire.DecodeResponse(p, e.ops[e.got])
	if err != nil {
		return err
	}
	n := len(resp.Value)
	for _, r := range resp.Records {
		n += len(r.Key) + len(r.Value)
	}
	if cap(e.arena)-len(e.arena) < n {
		e.arena = make([]byte, 0, max(n, 2*cap(e.arena)))
	}
	e.kept += n
	resp.Value = e.keep(resp.Value)
	for i := range resp.Records {
		resp.Records[i].Key = e.keep(resp.Records[i].Key)
		resp.Records[i].Value = e.keep(resp.Records[i].Value)
	}
	e.resps[e.got] = resp
	e.got++
	return nil
}

// keep copies b into the arena, which has room for it.
func (e *entry) keep(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	i := len(e.arena)
	e.arena = append(e.arena, b...)
	return e.arena[i:len(e.arena):len(e.arena)]
}

// result returns a resolved entry's response i and its error: the
// status's, or the transport failure for a response that never arrived.
func (e *entry) result(i int) (wire.Response, error) {
	if i >= e.got {
		return wire.Response{}, e.err
	}
	return e.resps[i], statusErr(&e.resps[i])
}

// Client is one pipelined connection to a hartd server. Safe for
// concurrent use; all methods may be called from multiple goroutines.
type Client struct {
	conn net.Conn

	// mu serializes frame writes and pending enqueues so the FIFO of
	// written requests matches the FIFO the reader consumes.
	mu      sync.Mutex
	pending chan *entry
	enc     []byte // one request's payload
	out     []byte // its frame

	cur *entry // the entry whose responses are arriving; the reader's own

	closeOnce sync.Once
	readerWG  sync.WaitGroup

	errMu sync.Mutex
	err   error // sticky: first connection-level failure
}

// maxInFlight bounds the entries awaiting responses — a single call or a
// whole Pipeline.Exec, however long, is one entry. A caller exceeding it
// blocks (briefly — the reader is always draining) rather than growing
// the queue without bound.
const maxInFlight = 4096

// errUnsolicited reports a response frame with no request pending.
var errUnsolicited = errors.New("unsolicited response")

// Dial connects to a hartd server.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 10*time.Second)
}

// DialTimeout connects with a bounded connection establishment time.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c := &Client{
		conn:    conn,
		pending: make(chan *entry, maxInFlight),
	}
	c.readerWG.Add(1)
	go c.readLoop()
	return c, nil
}

// readLoop is the connection's single reader. Each pass reads what the
// socket has into one reused buffer, resolves every complete frame in it
// and compacts the rest, which the server's connection loop does too. On
// any failure it fails the connection and resolves every pending entry.
func (c *Client) readLoop() {
	defer c.readerWG.Done()
	buf := make([]byte, 0, 64<<10)
	for {
		m, rerr := c.conn.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		off, need, err := c.deliver(buf)
		buf = buf[:copy(buf, buf[off:])]
		if need > cap(buf) {
			buf = append(make([]byte, 0, need), buf...)
		}
		if err == nil {
			err = rerr
		}
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrConnClosed, err))
			c.drain()
			return
		}
	}
}

// deliver splits every complete frame off b in place and decodes each into
// the next slot of the oldest pending entry, signalling the entry once its
// last slot is filled. It returns how many bytes the frames took, how long
// the buffer must be to hold the next frame whole, and the framing or
// decode error that ends the connection, if any.
func (c *Client) deliver(b []byte) (off, need int, err error) {
	for {
		var p []byte
		if p, need, err = wire.SplitFrame(b[off:]); err != nil || need > len(b)-off {
			return off, need, err
		}
		off += need
		if c.cur == nil {
			select {
			case c.cur = <-c.pending:
			default:
				return off, need, errUnsolicited
			}
		}
		if err := c.cur.decode(p); err != nil {
			return off, need, fmt.Errorf("response decode: %v", err)
		}
		if c.cur.got == len(c.cur.ops) {
			c.cur.done <- struct{}{}
			c.cur = nil
		}
	}
}

// fail records the sticky error, if it is the first, and closes the
// transport, which ends the reader's next Read.
func (c *Client) fail(err error) {
	c.errMu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.errMu.Unlock()
	c.conn.Close()
}

// drain resolves the entry in progress and every queued one with the
// sticky error; the reader runs it once, on its way out. The queue is
// emptied once without c.mu, so that a writer blocked on a full queue
// under c.mu can finish, and once more under it: every later writer sees
// the sticky error before it can enqueue.
func (c *Client) drain() {
	err := c.stickyErr()
	if c.cur != nil {
		c.cur.err = err
		c.cur.done <- struct{}{}
		c.cur = nil
	}
	c.drainPending(err)
	c.mu.Lock()
	c.drainPending(err)
	c.mu.Unlock()
}

// drainPending resolves every entry now queued with err.
func (c *Client) drainPending(err error) {
	for {
		select {
		case e := <-c.pending:
			e.err = err
			e.done <- struct{}{}
		default:
			return
		}
	}
}

// stickyErr returns the recorded connection failure, if any.
func (c *Client) stickyErr() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

// Close shuts the connection down. In-flight calls fail with
// ErrConnClosed; their server-side fate is unknown.
func (c *Client) Close() error {
	c.closeOnce.Do(func() { c.fail(ErrConnClosed) })
	c.readerWG.Wait()
	return nil
}

// sendLocked registers e and writes its frames; c.mu is held. The enqueue
// precedes the write so pending order always equals wire order; it blocks
// while maxInFlight entries are pending, until the reader, which takes no
// lock to resolve one, drains an entry. A write failure fails the
// connection, and the reader then resolves e with it.
func (c *Client) sendLocked(e *entry, frames []byte) error {
	if err := c.stickyErr(); err != nil {
		return err
	}
	c.pending <- e
	if _, err := c.conn.Write(frames); err != nil {
		c.fail(fmt.Errorf("%w: %v", ErrConnClosed, err))
	}
	return nil
}

// roundTrip is the synchronous path: send an entry of one, then wait.
func (c *Client) roundTrip(req *wire.Request) (wire.Response, error) {
	e := single(req.Op)
	c.mu.Lock()
	p, err := req.AppendRequest(c.enc[:0])
	if err == nil {
		c.enc = p
		c.out = wire.AppendFrame(c.out[:0], p)
		err = c.sendLocked(e, c.out)
	}
	c.mu.Unlock()
	if err != nil {
		return wire.Response{}, err
	}
	<-e.done
	return e.result(0)
}

// statusErr maps a non-OK status to its exported error, keeping the
// server's message as detail.
func statusErr(resp *wire.Response) error {
	var base error
	switch resp.Status {
	case wire.StatusOK:
		return nil
	case wire.StatusNotFound:
		base = ErrNotFound
	case wire.StatusBadRequest:
		base = ErrBadRequest
	case wire.StatusKeyTooLong:
		base = ErrKeyTooLong
	case wire.StatusValueTooLong:
		base = ErrValueTooLong
	case wire.StatusClosed:
		base = ErrStoreClosed
	default:
		base = ErrServer
	}
	if resp.Msg != "" && resp.Msg != resp.Status.String() {
		return fmt.Errorf("%w: %s", base, resp.Msg)
	}
	return base
}

// Get returns the value stored under key, or ErrNotFound.
func (c *Client) Get(key []byte) ([]byte, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpGet, Key: key})
	if err != nil {
		return nil, err
	}
	return resp.Value, nil
}

// Put stores value under key. A nil return means the write is durable
// on the server.
func (c *Client) Put(key, value []byte) error {
	_, err := c.roundTrip(&wire.Request{Op: wire.OpPut, Key: key, Value: value})
	return err
}

// Delete removes key, or returns ErrNotFound.
func (c *Client) Delete(key []byte) error {
	_, err := c.roundTrip(&wire.Request{Op: wire.OpDelete, Key: key})
	return err
}

// PutBatch stores records atomically per shard group and returns the
// number applied.
func (c *Client) PutBatch(records []Record) (int, error) {
	req := wire.Request{Op: wire.OpPutBatch, Records: make([]wire.Record, len(records))}
	for i, r := range records {
		req.Records[i] = wire.Record{Key: r.Key, Value: r.Value}
	}
	resp, err := c.roundTrip(&req)
	return int(resp.Applied), err
}

// Scan returns one page of records in [start, end), at most limit (the
// server caps pages at its MaxScanPage), plus whether more remain. A
// nil start scans from the beginning, a nil end to the very end.
func (c *Client) Scan(start, end []byte, limit int) ([]Record, bool, error) {
	resp, err := c.roundTrip(&wire.Request{
		Op: wire.OpScan, Start: start, End: end, Limit: uint32(limit),
	})
	if err != nil {
		return nil, false, err
	}
	recs := make([]Record, len(resp.Records))
	for i, r := range resp.Records {
		recs[i] = Record{Key: r.Key, Value: r.Value}
	}
	return recs, resp.More, nil
}

// ScanAll walks every record in [start, end) in key order, paging
// through the server transparently. fn returning false stops the walk.
func (c *Client) ScanAll(start, end []byte, fn func(key, value []byte) bool) error {
	cursor := start
	for {
		recs, more, err := c.Scan(cursor, end, 0)
		if err != nil {
			return err
		}
		for _, r := range recs {
			if !fn(r.Key, r.Value) {
				return nil
			}
		}
		if !more || len(recs) == 0 {
			return nil
		}
		// Resume just past the last key: its key plus a zero byte is the
		// smallest possible successor.
		last := recs[len(recs)-1].Key
		cursor = append(append(make([]byte, 0, len(last)+1), last...), 0)
	}
}

// Stats fetches the server's statistics document.
func (c *Client) Stats() (Stats, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpStats})
	if err != nil {
		return Stats{}, err
	}
	var s Stats
	if err := json.Unmarshal(resp.Value, &s); err != nil {
		return Stats{}, fmt.Errorf("%w: stats payload: %v", ErrServer, err)
	}
	return s, nil
}

// Pipeline queues requests locally and ships them as one burst. It is
// for single-goroutine use (the Client itself already pipelines across
// goroutines); Exec writes every queued frame with one write, as one
// pending entry, and wakes once, when the burst's last response is in.
type Pipeline struct {
	c   *Client
	enc []byte // one request's payload
	buf []byte // the burst's frames
	ops []wire.Op
	// e is reused by every Exec: the reader is done with it once Exec
	// has its signal, and what Exec returns owns no part of it but the
	// arena, which each Exec replaces.
	e    entry
	hint int // the last Exec's arena bytes: the size of the next one's
}

// Pipeline starts an empty pipeline on this connection.
func (c *Client) Pipeline() *Pipeline {
	p := &Pipeline{c: c}
	p.e.done = make(chan struct{}, 1)
	return p
}

// Result is one queued request's outcome after Exec.
type Result struct {
	// Value is the Get payload (nil for writes). It belongs to the
	// caller: later Execs do not reuse it.
	Value []byte
	// Err is the per-request error, nil on success.
	Err error
}

// queue appends one encoded request to the burst.
func (p *Pipeline) queue(req *wire.Request) error {
	payload, err := req.AppendRequest(p.enc[:0])
	if err != nil {
		return err
	}
	p.enc = payload
	p.buf = wire.AppendFrame(p.buf, payload)
	p.ops = append(p.ops, req.Op)
	return nil
}

// Get queues a read.
func (p *Pipeline) Get(key []byte) error {
	return p.queue(&wire.Request{Op: wire.OpGet, Key: key})
}

// Put queues a write.
func (p *Pipeline) Put(key, value []byte) error {
	return p.queue(&wire.Request{Op: wire.OpPut, Key: key, Value: value})
}

// Delete queues a removal.
func (p *Pipeline) Delete(key []byte) error {
	return p.queue(&wire.Request{Op: wire.OpDelete, Key: key})
}

// Len reports how many requests are queued.
func (p *Pipeline) Len() int { return len(p.ops) }

// Exec ships the queued burst in one write and waits for all responses,
// returned in request order. The pipeline is reset and reusable after.
// The returned error reports transport failure only; per-request
// failures are in the Results. If the connection fails partway through
// the burst, the responses that arrived keep their outcomes, the rest
// fail with ErrConnClosed, and so does Exec.
func (p *Pipeline) Exec() ([]Result, error) {
	n := len(p.ops)
	if n == 0 {
		return nil, nil
	}
	defer p.reset()
	e := &p.e
	if cap(e.resps) < n {
		e.resps = make([]wire.Response, n)
	}
	e.ops, e.resps, e.got, e.err, e.arena, e.kept = p.ops, e.resps[:n], 0, nil, nil, 0
	if p.hint > 0 {
		e.arena = make([]byte, 0, p.hint)
	}
	c := p.c
	c.mu.Lock()
	err := c.sendLocked(e, p.buf)
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	<-e.done
	p.hint = e.kept
	results := make([]Result, n)
	for i := range results {
		resp, err := e.result(i)
		results[i] = Result{Value: resp.Value, Err: err}
	}
	return results, e.err
}

// reset clears the queue for reuse.
func (p *Pipeline) reset() {
	p.buf = p.buf[:0]
	p.ops = p.ops[:0]
}

// Package client is the public Go client for hartd, the HART network
// daemon. It speaks the length-prefixed binary protocol from
// internal/wire over one TCP connection and pipelines naturally: a
// request is written and enqueued under a short lock, then the caller
// waits on its own response slot while other goroutines write theirs —
// many requests stay in flight at once, and the connection's reader
// goroutine matches responses back in FIFO order (the protocol has no
// request IDs; ordering is the contract).
//
// For explicit batching — the client-side half of the server's Put
// coalescing — use Pipeline: queue requests locally, Exec writes them
// as one burst (one syscall, one flush), and the server reads them as
// one burst of its own, whose consecutive Puts it coalesces into one
// PutBatch.
//
// An acknowledged write (nil error from Put, PutBatch, Delete) is
// durable on the server at the time the call returns; a connection or
// server failure can only lose writes that had not yet been
// acknowledged.
package client

import (
	"bufio"
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

// call is one in-flight request: the op its response decodes under and
// the slot its result lands in.
type call struct {
	op   wire.Op
	done chan result
}

type result struct {
	resp wire.Response
	err  error
}

// Client is one pipelined connection to a hartd server. Safe for
// concurrent use; all methods may be called from multiple goroutines.
type Client struct {
	conn net.Conn

	// mu serializes frame writes and pending enqueues so the FIFO of
	// written requests matches the FIFO the reader consumes.
	mu      sync.Mutex
	bw      *bufio.Writer
	pending chan *call
	encBuf  []byte

	closeOnce sync.Once
	readerWG  sync.WaitGroup

	errMu sync.Mutex
	err   error // sticky: first connection-level failure
}

// maxInFlight bounds pipelined requests awaiting responses; a caller
// exceeding it blocks (briefly — the reader is always draining) rather
// than growing without bound.
const maxInFlight = 4096

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
		bw:      bufio.NewWriterSize(conn, 64<<10),
		pending: make(chan *call, maxInFlight),
	}
	c.readerWG.Add(1)
	go c.readLoop()
	return c, nil
}

// readLoop is the connection's single reader: each arriving frame
// resolves the oldest pending call. On any read error every in-flight
// and future call fails with the sticky error.
func (c *Client) readLoop() {
	defer c.readerWG.Done()
	br := bufio.NewReaderSize(c.conn, 64<<10)
	var buf []byte
	for {
		payload, err := wire.ReadFrame(br, buf)
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrConnClosed, err))
			return
		}
		buf = payload
		select {
		case ca := <-c.pending:
			resp, derr := wire.DecodeResponse(payload, ca.op)
			if derr != nil {
				ca.done <- result{err: fmt.Errorf("%w: %v", ErrConnClosed, derr)}
				c.fail(fmt.Errorf("%w: response decode: %v", ErrConnClosed, derr))
				return
			}
			// The response payload aliases the read buffer; copy what
			// outlives this iteration.
			resp.Value = append([]byte(nil), resp.Value...)
			for i := range resp.Records {
				resp.Records[i].Key = append([]byte(nil), resp.Records[i].Key...)
				resp.Records[i].Value = append([]byte(nil), resp.Records[i].Value...)
			}
			ca.done <- result{resp: resp}
		default:
			c.fail(fmt.Errorf("%w: unsolicited response", ErrConnClosed))
			return
		}
	}
}

// fail records the sticky error, closes the transport and drains every
// pending call with the failure.
func (c *Client) fail(err error) {
	c.errMu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.errMu.Unlock()
	c.conn.Close()
	for {
		select {
		case ca := <-c.pending:
			ca.done <- result{err: err}
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
	c.closeOnce.Do(func() {
		c.errMu.Lock()
		if c.err == nil {
			c.err = ErrConnClosed
		}
		c.errMu.Unlock()
		c.conn.Close()
	})
	c.readerWG.Wait()
	return nil
}

// send writes one request frame and registers its response slot. The
// enqueue happens under the write lock so pending order always equals
// wire order.
func (c *Client) send(req *wire.Request) (*call, error) {
	ca := &call{op: req.Op, done: make(chan result, 1)}
	c.mu.Lock()
	if err := c.stickyErr(); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	p, err := req.AppendRequest(c.encBuf[:0])
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	c.encBuf = p[:0]
	c.pending <- ca
	// The frame is built in the writer's free buffer, so Write copies
	// nothing unless the frame outgrows it.
	_, werr := c.bw.Write(wire.AppendFrame(c.bw.AvailableBuffer(), p))
	if werr == nil {
		werr = c.bw.Flush()
	}
	c.mu.Unlock()
	if werr != nil {
		c.fail(fmt.Errorf("%w: %v", ErrConnClosed, werr))
	}
	return ca, nil
}

// wait blocks for a call's result and maps its status to an error.
func wait(ca *call) (wire.Response, error) {
	res := <-ca.done
	if res.err != nil {
		return wire.Response{}, res.err
	}
	if err := statusErr(&res.resp); err != nil {
		return res.resp, err
	}
	return res.resp, nil
}

// roundTrip is the synchronous path: send, then wait.
func (c *Client) roundTrip(req *wire.Request) (wire.Response, error) {
	ca, err := c.send(req)
	if err != nil {
		return wire.Response{}, err
	}
	return wait(ca)
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
// goroutines); Exec writes every queued frame with one flush and then
// collects every response, in order.
type Pipeline struct {
	c     *Client
	enc   []byte // one request's payload
	buf   []byte // the burst's frames
	calls []*call
}

// Pipeline starts an empty pipeline on this connection.
func (c *Client) Pipeline() *Pipeline {
	return &Pipeline{c: c}
}

// Result is one queued request's outcome after Exec.
type Result struct {
	// Value is the Get payload (nil for writes).
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
	p.calls = append(p.calls, &call{op: req.Op, done: make(chan result, 1)})
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
func (p *Pipeline) Len() int { return len(p.calls) }

// Exec ships the queued burst in one write and waits for all responses,
// returned in request order. The pipeline is reset and reusable after.
// The returned error reports transport failure only; per-request
// failures are in the Results.
func (p *Pipeline) Exec() ([]Result, error) {
	if len(p.calls) == 0 {
		return nil, nil
	}
	c := p.c
	c.mu.Lock()
	if err := c.stickyErr(); err != nil {
		c.mu.Unlock()
		p.reset()
		return nil, err
	}
	for _, ca := range p.calls {
		c.pending <- ca
	}
	_, werr := c.bw.Write(p.buf)
	if werr == nil {
		werr = c.bw.Flush()
	}
	c.mu.Unlock()
	if werr != nil {
		c.fail(fmt.Errorf("%w: %v", ErrConnClosed, werr))
	}

	results := make([]Result, len(p.calls))
	var transportErr error
	for i, ca := range p.calls {
		resp, err := wait(ca)
		results[i] = Result{Value: resp.Value, Err: err}
		if errors.Is(err, ErrConnClosed) && transportErr == nil {
			transportErr = err
		}
	}
	p.reset()
	return results, transportErr
}

// reset clears the queue for reuse.
func (p *Pipeline) reset() {
	p.buf = p.buf[:0]
	p.calls = p.calls[:0]
}

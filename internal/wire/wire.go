// Package wire defines hartd's binary protocol: the length-prefixed
// framing and the request/response encodings shared by the server
// (internal/server) and the public client package.
//
// Every message travels as one frame — a 4-byte big-endian payload
// length followed by that many payload bytes, capped at MaxFrame so a
// corrupt or hostile length prefix can neither stall the reader on a
// gigantic read nor balloon its buffer. The payload starts with a
// 2-byte header (protocol version, then opcode for requests or status
// for responses) and continues with the op-specific body.
//
// Request bodies (all integers big-endian):
//
//	Get      klen:u16 key
//	Put      klen:u16 key vlen:u32 value
//	Delete   klen:u16 key
//	Scan     flags:u8 [slen:u16 start] [elen:u16 end] limit:u32
//	         (flags bit0 = start present, bit1 = end present; an absent
//	         bound scans from the bottom / to the top of the keyspace)
//	PutBatch count:u32 then count × (klen:u16 key vlen:u32 value)
//	Stats    (empty)
//
// Response bodies:
//
//	Get      value (rest of frame; StatusNotFound carries none)
//	Put      (empty)
//	Delete   (empty)
//	Scan     count:u32 then count × (klen:u16 key vlen:u32 value),
//	         then more:u8 (1 = the range continues past the last record)
//	PutBatch applied:u32
//	Stats    JSON document (StatsPayload)
//
// A non-OK status replaces the body with a human-readable message
// (except PutBatch, whose error body still leads with applied:u32 so a
// partially applied batch reports how far it got).
//
// Decoding is defensive end to end: truncated frames, lengths pointing
// past the payload, unknown opcodes/statuses and version mismatches all
// return errors — never panic — and claimed element counts are bounded
// by the bytes actually present before any slice is sized from them.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Version is the protocol version byte. A peer speaking a different
// version is refused at the first frame.
const Version = 1

// MaxFrame bounds one frame's payload. It comfortably holds the largest
// legitimate message (a full scan page or a several-thousand-record
// batch) while capping what a corrupt length prefix can make a reader
// allocate.
const MaxFrame = 1 << 20

// MaxScanPage is the most records a server packs into one Scan
// response; a range with more sets the response's More flag and the
// client continues after the last returned key.
const MaxScanPage = 4096

// Op identifies a request's operation.
type Op byte

// Request opcodes.
const (
	OpGet      Op = 1
	OpPut      Op = 2
	OpDelete   Op = 3
	OpScan     Op = 4
	OpPutBatch Op = 5
	OpStats    Op = 6
)

// opNames is indexed by opcode; the opcodes are dense from OpGet, so a
// range check is the valid-opcode test the codec runs on every message.
var opNames = [...]string{
	OpGet: "Get", OpPut: "Put", OpDelete: "Delete",
	OpScan: "Scan", OpPutBatch: "PutBatch", OpStats: "Stats",
}

// valid reports whether o is a request opcode.
func (o Op) valid() bool { return o >= OpGet && int(o) < len(opNames) }

// String returns the op's wire name.
func (o Op) String() string {
	if o.valid() {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", byte(o))
}

// Status is a response's outcome code.
type Status byte

// Response statuses.
const (
	StatusOK Status = 0
	// StatusNotFound reports a missing key (Get miss, Delete of an
	// absent key). It is an outcome, not a protocol failure.
	StatusNotFound Status = 1
	// StatusBadRequest reports a semantically invalid request the store
	// refused (empty key, malformed scan bounds).
	StatusBadRequest Status = 2
	// StatusKeyTooLong / StatusValueTooLong report the store's limits.
	StatusKeyTooLong   Status = 3
	StatusValueTooLong Status = 4
	// StatusClosed reports a store already shut down.
	StatusClosed Status = 5
	// StatusServerError reports any other store-side failure (for a
	// PutBatch, the body's applied count says how much committed).
	StatusServerError Status = 6
)

// statusNames is indexed by status; the statuses are dense from StatusOK.
var statusNames = [...]string{
	StatusOK: "ok", StatusNotFound: "not found", StatusBadRequest: "bad request",
	StatusKeyTooLong: "key too long", StatusValueTooLong: "value too long",
	StatusClosed: "store closed", StatusServerError: "server error",
}

// valid reports whether s is a response status.
func (s Status) valid() bool { return int(s) < len(statusNames) }

// String returns the status's description.
func (s Status) String() string {
	if s.valid() {
		return statusNames[s]
	}
	return fmt.Sprintf("Status(%d)", byte(s))
}

// Decoder errors. ErrFrameTooLarge is also returned by SplitFrame for a
// length prefix above MaxFrame.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	ErrTruncated     = errors.New("wire: truncated message")
	ErrBadVersion    = errors.New("wire: protocol version mismatch")
	ErrBadOp         = errors.New("wire: unknown opcode")
	ErrBadStatus     = errors.New("wire: unknown status")
	ErrTooLong       = errors.New("wire: element exceeds frame bounds")
)

// Record is one key-value pair (PutBatch requests, Scan responses).
type Record struct {
	Key   []byte
	Value []byte
}

// Request is one decoded client request. Which fields are meaningful
// depends on Op; the zero value of the rest is ignored by encoders.
type Request struct {
	Op Op
	// Key and Value serve Get/Put/Delete.
	Key   []byte
	Value []byte
	// Start/End bound a Scan; nil means unbounded on that side (the
	// HasStart/HasEnd flags distinguish nil from empty on the wire).
	Start, End []byte
	// Limit caps a Scan's record count; 0 means MaxScanPage. The server
	// clamps to MaxScanPage either way.
	Limit uint32
	// Records carries a PutBatch.
	Records []Record
}

// Response is one decoded server response. Field relevance follows the
// request op the response answers (responses arrive in request order,
// so the client always knows it).
type Response struct {
	Status Status
	// Value is a Get hit's payload.
	Value []byte
	// Records and More answer a Scan: the page of records, and whether
	// the range continues beyond it.
	Records []Record
	More    bool
	// Applied is a PutBatch's committed-record count (meaningful on
	// errors too: the durably applied prefix).
	Applied uint32
	// Msg is the error detail accompanying a non-OK status.
	Msg string
}

// StatsPayload is the JSON document a Stats response carries.
type StatsPayload struct {
	// Records is the store's live record count; ARTs its shard count.
	Records int `json:"records"`
	ARTs    int `json:"arts"`
	// Counters/Hists/Events mirror hart's obs.Snapshot.
	Counters map[string]uint64      `json:"counters"`
	Hists    map[string]HistSummary `json:"hists,omitempty"`
	Server   map[string]uint64      `json:"server,omitempty"`
}

// HistSummary mirrors obs.HistVal without importing it (the wire
// package stays dependency-free so the client pulls in nothing else).
type HistSummary struct {
	Count  uint64  `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  uint64  `json:"p50_ns"`
	P95Ns  uint64  `json:"p95_ns"`
	P99Ns  uint64  `json:"p99_ns"`
	MaxNs  uint64  `json:"max_ns"`
}

// AppendFrame appends payload's frame (length prefix + payload) to dst.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// SplitFrame finds the frame b starts with. n is the frame's whole length,
// prefix included — or 4 while b is shorter than the prefix — and once
// len(b) >= n, payload is the frame's payload, aliasing b. A length prefix
// above MaxFrame returns ErrFrameTooLarge: the stream's framing is lost.
func SplitFrame(b []byte) (payload []byte, n int, err error) {
	if len(b) < 4 {
		return nil, 4, nil
	}
	size := binary.BigEndian.Uint32(b)
	if size > MaxFrame {
		return nil, 0, ErrFrameTooLarge
	}
	n = 4 + int(size)
	if len(b) < n {
		return nil, n, nil
	}
	return b[4:n:n], n, nil
}

// reader walks a payload with bounds-checked cursor reads; all take-
// methods fail with ErrTruncated/ErrTooLong instead of slicing past the
// end, which is what makes the decoders panic-free on arbitrary input.
type reader struct {
	p   []byte
	off int
}

func (r *reader) remaining() int { return len(r.p) - r.off }

func (r *reader) byte() (byte, error) {
	if r.remaining() < 1 {
		return 0, ErrTruncated
	}
	b := r.p[r.off]
	r.off++
	return b, nil
}

func (r *reader) u16() (uint16, error) {
	if r.remaining() < 2 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint16(r.p[r.off:])
	r.off += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint32(r.p[r.off:])
	r.off += 4
	return v, nil
}

// bytes takes n bytes without copying; the caller owns deciding whether
// the frame buffer outlives the decoded message (the server copies keys
// it retains, the client hands values straight to the caller).
func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, ErrTooLong
	}
	b := r.p[r.off : r.off+n : r.off+n]
	r.off += n
	return b, nil
}

// lenBytes reads a u16 length then that many bytes.
func (r *reader) lenBytes() ([]byte, error) {
	n, err := r.u16()
	if err != nil {
		return nil, err
	}
	return r.bytes(int(n))
}

// lenBytes32 reads a u32 length then that many bytes.
func (r *reader) lenBytes32() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if n > uint32(r.remaining()) {
		return nil, ErrTooLong
	}
	return r.bytes(int(n))
}

// header decodes the shared version byte and the op/status byte.
func (r *reader) header() (byte, error) {
	v, err := r.byte()
	if err != nil {
		return 0, err
	}
	if v != Version {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, v, Version)
	}
	return r.byte()
}

// appendLenBytes appends a u16 length prefix and the bytes.
func appendLenBytes(dst, b []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(b)))
	return append(dst, b...)
}

// appendLenBytes32 appends a u32 length prefix and the bytes.
func appendLenBytes32(dst, b []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// minRecordBytes is the smallest possible encoded record (1-byte key,
// 1-byte value): the divisor bounding claimed PutBatch/Scan counts.
const minRecordBytes = 2 + 1 + 4 + 1

// scanFlags bits.
const (
	flagHasStart = 1 << 0
	flagHasEnd   = 1 << 1
)

// AppendRequest appends req's encoded payload (no frame prefix) to dst.
// It returns an error for keys or values longer than their length
// fields can carry, and for a message that would exceed MaxFrame.
func (req *Request) AppendRequest(dst []byte) ([]byte, error) {
	if !req.Op.valid() {
		return nil, ErrBadOp
	}
	start := len(dst)
	dst = append(dst, Version, byte(req.Op))
	var err error
	switch req.Op {
	case OpGet, OpDelete:
		if dst, err = appendSizedKey(dst, req.Key); err != nil {
			return nil, err
		}
	case OpPut:
		if dst, err = appendSizedKey(dst, req.Key); err != nil {
			return nil, err
		}
		dst = appendLenBytes32(dst, req.Value)
	case OpScan:
		var flags byte
		if req.Start != nil {
			flags |= flagHasStart
		}
		if req.End != nil {
			flags |= flagHasEnd
		}
		dst = append(dst, flags)
		if req.Start != nil {
			if dst, err = appendSizedKey(dst, req.Start); err != nil {
				return nil, err
			}
		}
		if req.End != nil {
			if dst, err = appendSizedKey(dst, req.End); err != nil {
				return nil, err
			}
		}
		dst = binary.BigEndian.AppendUint32(dst, req.Limit)
	case OpPutBatch:
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(req.Records)))
		for _, r := range req.Records {
			if dst, err = appendSizedKey(dst, r.Key); err != nil {
				return nil, err
			}
			dst = appendLenBytes32(dst, r.Value)
		}
	case OpStats:
		// empty body
	}
	if len(dst)-start > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	return dst, nil
}

// appendSizedKey bounds keys (and scan bounds) to the u16 length field.
func appendSizedKey(dst, key []byte) ([]byte, error) {
	if len(key) > 0xffff {
		return nil, ErrTooLong
	}
	return appendLenBytes(dst, key), nil
}

// DecodeRequest decodes one request payload. The returned request's
// byte slices alias p — copy anything retained past the frame buffer's
// reuse.
func DecodeRequest(p []byte) (Request, error) {
	r := reader{p: p}
	opB, err := r.header()
	if err != nil {
		return Request{}, err
	}
	req := Request{Op: Op(opB)}
	if !req.Op.valid() {
		return Request{}, fmt.Errorf("%w: %d", ErrBadOp, opB)
	}
	switch req.Op {
	case OpGet, OpDelete:
		if req.Key, err = r.lenBytes(); err != nil {
			return Request{}, err
		}
	case OpPut:
		if req.Key, err = r.lenBytes(); err != nil {
			return Request{}, err
		}
		if req.Value, err = r.lenBytes32(); err != nil {
			return Request{}, err
		}
	case OpScan:
		flags, err := r.byte()
		if err != nil {
			return Request{}, err
		}
		if flags&flagHasStart != 0 {
			if req.Start, err = r.lenBytes(); err != nil {
				return Request{}, err
			}
			if req.Start == nil {
				req.Start = []byte{}
			}
		}
		if flags&flagHasEnd != 0 {
			if req.End, err = r.lenBytes(); err != nil {
				return Request{}, err
			}
			if req.End == nil {
				req.End = []byte{}
			}
		}
		if req.Limit, err = r.u32(); err != nil {
			return Request{}, err
		}
	case OpPutBatch:
		count, err := r.u32()
		if err != nil {
			return Request{}, err
		}
		// Bound the claimed count by the bytes actually present before
		// sizing anything from it: a hostile count can then cost at most
		// remaining/minRecordBytes slice headers, never gigabytes.
		if int64(count)*minRecordBytes > int64(r.remaining()) {
			return Request{}, fmt.Errorf("%w: %d records in %d bytes", ErrTruncated, count, r.remaining())
		}
		req.Records = make([]Record, 0, count)
		for i := uint32(0); i < count; i++ {
			var rec Record
			if rec.Key, err = r.lenBytes(); err != nil {
				return Request{}, err
			}
			if rec.Value, err = r.lenBytes32(); err != nil {
				return Request{}, err
			}
			req.Records = append(req.Records, rec)
		}
	case OpStats:
		// empty body
	}
	if r.remaining() != 0 {
		return Request{}, fmt.Errorf("%w: %d trailing bytes after %s", ErrTruncated, r.remaining(), req.Op)
	}
	return req, nil
}

// AppendResponse appends resp's encoded payload (no frame prefix) to
// dst. op is the request op the response answers.
func (resp *Response) AppendResponse(dst []byte, op Op) ([]byte, error) {
	if !resp.Status.valid() {
		return nil, ErrBadStatus
	}
	start := len(dst)
	dst = append(dst, Version, byte(resp.Status))
	if resp.Status != StatusOK {
		if op == OpPutBatch {
			dst = binary.BigEndian.AppendUint32(dst, resp.Applied)
		}
		dst = append(dst, resp.Msg...)
		if len(dst)-start > MaxFrame {
			return nil, ErrFrameTooLarge
		}
		return dst, nil
	}
	switch op {
	case OpGet, OpStats:
		dst = append(dst, resp.Value...)
	case OpPut, OpDelete:
		// empty body
	case OpScan:
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(resp.Records)))
		var err error
		for _, rec := range resp.Records {
			if dst, err = appendSizedKey(dst, rec.Key); err != nil {
				return nil, err
			}
			dst = appendLenBytes32(dst, rec.Value)
		}
		more := byte(0)
		if resp.More {
			more = 1
		}
		dst = append(dst, more)
	case OpPutBatch:
		dst = binary.BigEndian.AppendUint32(dst, resp.Applied)
	default:
		return nil, ErrBadOp
	}
	if len(dst)-start > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	return dst, nil
}

// DecodeResponse decodes one response payload answering op. The
// returned slices alias p.
func DecodeResponse(p []byte, op Op) (Response, error) {
	if !op.valid() {
		return Response{}, ErrBadOp
	}
	r := reader{p: p}
	stB, err := r.header()
	if err != nil {
		return Response{}, err
	}
	resp := Response{Status: Status(stB)}
	if !resp.Status.valid() {
		return Response{}, fmt.Errorf("%w: %d", ErrBadStatus, stB)
	}
	if resp.Status != StatusOK {
		if op == OpPutBatch {
			if resp.Applied, err = r.u32(); err != nil {
				return Response{}, err
			}
		}
		msg, _ := r.bytes(r.remaining())
		resp.Msg = string(msg)
		return resp, nil
	}
	switch op {
	case OpGet, OpStats:
		resp.Value, _ = r.bytes(r.remaining())
	case OpPut, OpDelete:
		// empty body
	case OpScan:
		count, err := r.u32()
		if err != nil {
			return Response{}, err
		}
		if int64(count)*minRecordBytes > int64(r.remaining()) {
			return Response{}, fmt.Errorf("%w: %d records in %d bytes", ErrTruncated, count, r.remaining())
		}
		resp.Records = make([]Record, 0, count)
		for i := uint32(0); i < count; i++ {
			var rec Record
			if rec.Key, err = r.lenBytes(); err != nil {
				return Response{}, err
			}
			if rec.Value, err = r.lenBytes32(); err != nil {
				return Response{}, err
			}
			resp.Records = append(resp.Records, rec)
		}
		more, err := r.byte()
		if err != nil {
			return Response{}, err
		}
		resp.More = more != 0
	case OpPutBatch:
		if resp.Applied, err = r.u32(); err != nil {
			return Response{}, err
		}
	}
	if r.remaining() != 0 {
		return Response{}, fmt.Errorf("%w: %d trailing bytes after %s response", ErrTruncated, r.remaining(), op)
	}
	return resp, nil
}

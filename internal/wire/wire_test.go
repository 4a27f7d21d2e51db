package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/iotest"
)

// roundTripRequest encodes then decodes a request and returns the copy.
func roundTripRequest(t *testing.T, req Request) Request {
	t.Helper()
	p, err := req.AppendRequest(nil)
	if err != nil {
		t.Fatalf("encode %s: %v", req.Op, err)
	}
	got, err := DecodeRequest(p)
	if err != nil {
		t.Fatalf("decode %s: %v", req.Op, err)
	}
	return got
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpGet, Key: []byte("alpha")},
		{Op: OpDelete, Key: []byte("k")},
		{Op: OpPut, Key: []byte("key"), Value: []byte("value-12")},
		{Op: OpScan, Start: []byte("a"), End: []byte("b"), Limit: 17},
		{Op: OpScan, Limit: 0}, // unbounded both sides
		{Op: OpScan, Start: []byte{}, End: nil, Limit: 3},
		{Op: OpPutBatch, Records: []Record{
			{Key: []byte("k1"), Value: []byte("v1")},
			{Key: []byte("k2"), Value: []byte("v2-longer")},
		}},
		{Op: OpStats},
	}
	for _, req := range reqs {
		got := roundTripRequest(t, req)
		if got.Op != req.Op || !bytes.Equal(got.Key, req.Key) || !bytes.Equal(got.Value, req.Value) {
			t.Fatalf("%s: round trip mangled key/value: %+v != %+v", req.Op, got, req)
		}
		if (got.Start == nil) != (req.Start == nil) || !bytes.Equal(got.Start, req.Start) {
			t.Fatalf("%s: start %v != %v", req.Op, got.Start, req.Start)
		}
		if (got.End == nil) != (req.End == nil) || !bytes.Equal(got.End, req.End) {
			t.Fatalf("%s: end %v != %v", req.Op, got.End, req.End)
		}
		if got.Limit != req.Limit || len(got.Records) != len(req.Records) {
			t.Fatalf("%s: limit/records mismatch: %+v != %+v", req.Op, got, req)
		}
		for i := range req.Records {
			if !bytes.Equal(got.Records[i].Key, req.Records[i].Key) ||
				!bytes.Equal(got.Records[i].Value, req.Records[i].Value) {
				t.Fatalf("%s: record %d mismatch", req.Op, i)
			}
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []struct {
		op   Op
		resp Response
	}{
		{OpGet, Response{Status: StatusOK, Value: []byte("payload")}},
		{OpGet, Response{Status: StatusNotFound, Msg: "not found"}},
		{OpPut, Response{Status: StatusOK}},
		{OpPut, Response{Status: StatusValueTooLong, Msg: "value exceeds maximum length"}},
		{OpDelete, Response{Status: StatusOK}},
		{OpScan, Response{Status: StatusOK, More: true, Records: []Record{
			{Key: []byte("a"), Value: []byte("1")},
			{Key: []byte("b"), Value: []byte("2")},
		}}},
		{OpScan, Response{Status: StatusOK}}, // empty page
		{OpPutBatch, Response{Status: StatusOK, Applied: 42}},
		{OpPutBatch, Response{Status: StatusServerError, Applied: 7, Msg: "arena full"}},
		{OpStats, Response{Status: StatusOK, Value: []byte(`{"records":3}`)}},
	}
	for _, c := range cases {
		p, err := c.resp.AppendResponse(nil, c.op)
		if err != nil {
			t.Fatalf("encode %s response: %v", c.op, err)
		}
		got, err := DecodeResponse(p, c.op)
		if err != nil {
			t.Fatalf("decode %s response: %v", c.op, err)
		}
		if got.Status != c.resp.Status || got.Applied != c.resp.Applied ||
			got.More != c.resp.More || got.Msg != c.resp.Msg ||
			!bytes.Equal(got.Value, c.resp.Value) || len(got.Records) != len(c.resp.Records) {
			t.Fatalf("%s: round trip %+v != %+v", c.op, got, c.resp)
		}
	}
}

// TestDecodeRequestErrors drives the decoder through every refusal
// class: short frames, version and opcode garbage, lengths past the
// payload and counts that outrun the bytes present.
func TestDecodeRequestErrors(t *testing.T) {
	put, _ := (&Request{Op: OpPut, Key: []byte("key"), Value: []byte("val")}).AppendRequest(nil)

	cases := []struct {
		name string
		p    []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"version-only", []byte{Version}, ErrTruncated},
		{"bad-version", []byte{Version + 9, byte(OpGet)}, ErrBadVersion},
		{"bad-op", []byte{Version, 0}, ErrBadOp},
		{"bad-op-high", []byte{Version, 200}, ErrBadOp},
		{"get-no-key", []byte{Version, byte(OpGet)}, ErrTruncated},
		{"get-key-past-end", []byte{Version, byte(OpGet), 0xff, 0xff, 'k'}, ErrTooLong},
		{"put-truncated", put[:len(put)-1], ErrTooLong},
		{"put-trailing", append(append([]byte{}, put...), 0), ErrTruncated},
		{"scan-no-flags", []byte{Version, byte(OpScan)}, ErrTruncated},
		{"scan-missing-limit", []byte{Version, byte(OpScan), 0}, ErrTruncated},
		{"batch-count-overrun", []byte{Version, byte(OpPutBatch), 0xff, 0xff, 0xff, 0xff}, ErrTruncated},
		{"batch-count-vs-bytes", append([]byte{Version, byte(OpPutBatch), 0, 0, 0, 9}, make([]byte, 16)...), ErrTruncated},
	}
	for _, c := range cases {
		if _, err := DecodeRequest(c.p); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// TestDecodeBoundedAllocation pins the over-allocation defence: a batch
// claiming 2^32-1 records over a tiny payload must be refused before
// any record slice is sized from the claim (a panic or an OOM here
// would be the bug; the assertion is just that it errors).
func TestDecodeBoundedAllocation(t *testing.T) {
	p := []byte{Version, byte(OpPutBatch)}
	p = binary.BigEndian.AppendUint32(p, 0xffffffff)
	p = append(p, make([]byte, 64)...)
	if _, err := DecodeRequest(p); !errors.Is(err, ErrTruncated) {
		t.Fatalf("hostile count: err = %v, want ErrTruncated", err)
	}

	// Same for a Scan response's record count.
	rp := []byte{Version, byte(StatusOK)}
	rp = binary.BigEndian.AppendUint32(rp, 0x7fffffff)
	rp = append(rp, make([]byte, 32)...)
	if _, err := DecodeResponse(rp, OpScan); !errors.Is(err, ErrTruncated) {
		t.Fatalf("hostile scan count: err = %v, want ErrTruncated", err)
	}
}

// readFrames reads r to its end the way the client and server read a
// connection: whatever the reader delivers goes into one buffer (8 bytes
// at first, grown only for a larger frame), whole frames are split off
// in place and the rest is moved to the front. It returns the payloads
// read and nil if the stream ended between frames, ErrTruncated if it
// ended inside one, or SplitFrame's error.
func readFrames(r io.Reader) ([]string, error) {
	var got []string
	buf := make([]byte, 8)
	have := 0
	for {
		p, n, err := SplitFrame(buf[:have])
		if err != nil {
			return got, err
		}
		if n <= have {
			got = append(got, string(p))
			have = copy(buf, buf[n:have])
			continue
		}
		if n > len(buf) {
			buf = append(buf[:have], make([]byte, n-have)...)
		}
		m, err := r.Read(buf[have:])
		have += m
		if err == io.EOF {
			if m > 0 {
				continue
			}
			if have > 0 {
				return got, ErrTruncated
			}
			return got, nil
		}
		if err != nil {
			return got, err
		}
	}
}

// TestReadFrame reads frames off a stream through SplitFrame, with the
// stream delivered whole, in halves and a byte at a time: the frames come
// back in order, a stream that ends between frames ends cleanly, one cut
// in a frame's prefix or payload is ErrTruncated, and a length prefix
// above MaxFrame is refused before any buffer is sized from it.
func TestReadFrame(t *testing.T) {
	want := []string{"first", "", "third-frame"}
	var stream []byte
	for _, p := range want {
		stream = AppendFrame(stream, []byte(p))
	}
	cut := AppendFrame(nil, []byte("abcdef"))
	huge := binary.BigEndian.AppendUint32(nil, MaxFrame+1)
	readers := map[string]func([]byte) io.Reader{
		"whole":  func(b []byte) io.Reader { return bytes.NewReader(b) },
		"halves": func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) },
		"bytes":  func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
	}
	for name, reader := range readers {
		got, err := readFrames(reader(stream))
		if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: read %q, %v; want %q, nil", name, got, err, want)
		}
		for _, c := range []struct {
			what string
			b    []byte
			err  error
		}{
			{"cut payload", cut[:len(cut)-2], ErrTruncated},
			{"cut prefix", cut[:2], ErrTruncated},
			{"oversized prefix", huge, ErrFrameTooLarge},
		} {
			got, err := readFrames(reader(append(stream[:len(stream):len(stream)], c.b...)))
			if !errors.Is(err, c.err) || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s, %s: read %q, %v; want %q, %v", name, c.what, got, err, want, c.err)
			}
		}
	}
}

// TestSplitFrame feeds a stream of three frames to SplitFrame one byte
// more at a time, the way a socket may deliver it: each frame is split off
// only once whole, and until then n says how long the buffer must grow.
// A length prefix above MaxFrame is refused before anything is sized
// from it.
func TestSplitFrame(t *testing.T) {
	want := []string{"first", "", "third-frame"}
	var stream []byte
	for _, p := range want {
		stream = AppendFrame(stream, []byte(p))
	}
	var got []string
	off := 0
	for end := 0; end <= len(stream); end++ {
		p, n, err := SplitFrame(stream[off:end])
		if err != nil {
			t.Fatalf("SplitFrame(stream[%d:%d]): %v", off, end, err)
		}
		if n > end-off {
			continue
		}
		got = append(got, string(p))
		off += n
	}
	if off != len(stream) || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("split %q, consumed %d of %d bytes; want %q", got, off, len(stream), want)
	}

	// A frame cut off in its prefix or its payload yields no payload, and
	// n asks for the prefix, then for the whole frame.
	cut := AppendFrame(nil, []byte("abcdef"))
	for _, c := range []struct{ have, want int }{{0, 4}, {2, 4}, {4, 10}, {8, 10}} {
		if p, n, err := SplitFrame(cut[:c.have]); p != nil || n != c.want || err != nil {
			t.Fatalf("SplitFrame of %d bytes = %q, %d, %v; want nil, %d, nil", c.have, p, n, err, c.want)
		}
	}

	huge := binary.BigEndian.AppendUint32(nil, MaxFrame+1)
	if _, _, err := SplitFrame(huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: err = %v, want ErrFrameTooLarge", err)
	}
}

// TestRequestEncodeRefusals pins encoder-side limits: oversized keys
// and frames are refused at encode time, not sent and bounced.
func TestRequestEncodeRefusals(t *testing.T) {
	if _, err := (&Request{Op: OpGet, Key: make([]byte, 1<<17)}).AppendRequest(nil); !errors.Is(err, ErrTooLong) {
		t.Fatalf("oversized key: err = %v, want ErrTooLong", err)
	}
	big := Request{Op: OpPutBatch}
	for i := 0; i < 40; i++ {
		big.Records = append(big.Records, Record{Key: []byte{byte(i)}, Value: make([]byte, 1<<15)})
	}
	if _, err := big.AppendRequest(nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized batch: err = %v, want ErrFrameTooLarge", err)
	}
	if _, err := (&Request{Op: Op(99)}).AppendRequest(nil); !errors.Is(err, ErrBadOp) {
		t.Fatalf("bad op: err = %v, want ErrBadOp", err)
	}
}

// TestCodeNames pins every opcode's and status's name and the codec's
// answer to a code outside the table: the name is the numeric form, and
// each of the four entry points refuses it with ErrBadOp or ErrBadStatus.
func TestCodeNames(t *testing.T) {
	ops := map[Op]string{
		0: "Op(0)", OpGet: "Get", OpPut: "Put", OpDelete: "Delete", OpScan: "Scan",
		OpPutBatch: "PutBatch", OpStats: "Stats", 7: "Op(7)", 255: "Op(255)",
	}
	for op, want := range ops {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", byte(op), got, want)
		}
	}
	statuses := map[Status]string{
		StatusOK: "ok", StatusNotFound: "not found", StatusBadRequest: "bad request",
		StatusKeyTooLong: "key too long", StatusValueTooLong: "value too long",
		StatusClosed: "store closed", StatusServerError: "server error",
		7: "Status(7)", 255: "Status(255)",
	}
	for st, want := range statuses {
		if got := st.String(); got != want {
			t.Errorf("Status(%d).String() = %q, want %q", byte(st), got, want)
		}
	}

	for _, op := range []Op{0, 7, 255} {
		if _, err := (&Request{Op: op}).AppendRequest(nil); !errors.Is(err, ErrBadOp) {
			t.Errorf("AppendRequest(Op(%d)): err = %v, want ErrBadOp", byte(op), err)
		}
		if _, err := DecodeRequest([]byte{Version, byte(op)}); !errors.Is(err, ErrBadOp) {
			t.Errorf("DecodeRequest(Op(%d)): err = %v, want ErrBadOp", byte(op), err)
		}
		if _, err := (&Response{}).AppendResponse(nil, op); !errors.Is(err, ErrBadOp) {
			t.Errorf("AppendResponse(Op(%d)): err = %v, want ErrBadOp", byte(op), err)
		}
		if _, err := DecodeResponse([]byte{Version, byte(StatusOK)}, op); !errors.Is(err, ErrBadOp) {
			t.Errorf("DecodeResponse(Op(%d)): err = %v, want ErrBadOp", byte(op), err)
		}
	}
	for _, st := range []Status{7, 255} {
		if _, err := (&Response{Status: st}).AppendResponse(nil, OpGet); !errors.Is(err, ErrBadStatus) {
			t.Errorf("AppendResponse(Status(%d)): err = %v, want ErrBadStatus", byte(st), err)
		}
		if _, err := DecodeResponse([]byte{Version, byte(st)}, OpGet); !errors.Is(err, ErrBadStatus) {
			t.Errorf("DecodeResponse(Status(%d)): err = %v, want ErrBadStatus", byte(st), err)
		}
	}
}

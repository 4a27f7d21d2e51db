package client

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"github.com/casl-sdsu/hart/internal/wire"
)

// scriptedPeer stands in for hartd: it accepts one connection from the
// returned client and runs script on it, closing the connection when the
// script returns. The test's cleanup closes the client first and then
// waits for the script.
func scriptedPeer(t *testing.T, script func(nc net.Conn, rd *frameReader)) *Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		nc, err := ln.Accept()
		ln.Close()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		defer nc.Close()
		script(nc, &frameReader{r: nc})
	}()
	t.Cleanup(func() { <-done })
	return dialT(t, ln.Addr().String())
}

// frameReader splits request frames off a stream with wire.SplitFrame.
type frameReader struct {
	r   io.Reader
	buf []byte
}

// requests reads and decodes the next n request frames. Their slices
// alias nothing the next call reuses.
func (fr *frameReader) requests(n int) ([]wire.Request, error) {
	var reqs []wire.Request
	for len(reqs) < n {
		p, need, err := wire.SplitFrame(fr.buf)
		if err != nil {
			return nil, err
		}
		if need > len(fr.buf) {
			chunk := make([]byte, 4096)
			m, err := fr.r.Read(chunk)
			fr.buf = append(fr.buf, chunk[:m]...)
			if err != nil {
				return nil, err
			}
			continue
		}
		req, err := wire.DecodeRequest(bytes.Clone(p))
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, req)
		fr.buf = fr.buf[need:]
	}
	return reqs, nil
}

// appendResp appends resp's frame, answering op, to dst.
func appendResp(t *testing.T, dst []byte, op wire.Op, resp wire.Response) []byte {
	t.Helper()
	p, err := resp.AppendResponse(nil, op)
	if err != nil {
		t.Errorf("encode %s response: %v", op, err)
	}
	return wire.AppendFrame(dst, p)
}

// TestPipelineConnLostMidBurst has the peer answer 10 of a 64-request
// burst and then close: the 10 responses that arrived keep their values
// and statuses, the other 54 fail with ErrConnClosed, and so does Exec
// and every later call.
func TestPipelineConnLostMidBurst(t *testing.T) {
	c := scriptedPeer(t, func(nc net.Conn, rd *frameReader) {
		reqs, err := rd.requests(64)
		if err != nil {
			t.Errorf("peer read: %v", err)
			return
		}
		var out []byte
		for _, req := range reqs[:10] {
			resp := wire.Response{Status: wire.StatusOK, Value: append([]byte("v-"), req.Key...)}
			if req.Key[len(req.Key)-1]%3 == 0 {
				resp = wire.Response{Status: wire.StatusNotFound, Msg: "not found"}
			}
			out = appendResp(t, out, req.Op, resp)
		}
		nc.Write(out)
	})
	p := c.Pipeline()
	for i := 0; i < 64; i++ {
		p.Get([]byte(fmt.Sprintf("k%02d", i)))
	}
	res, err := p.Exec()
	if !errors.Is(err, ErrConnClosed) || len(res) != 64 {
		t.Fatalf("Exec = %d results, %v; want 64, ErrConnClosed", len(res), err)
	}
	for i, r := range res {
		key := fmt.Sprintf("k%02d", i)
		switch {
		case i >= 10:
			if !errors.Is(r.Err, ErrConnClosed) || r.Value != nil {
				t.Fatalf("result %d = %q, %v; want ErrConnClosed", i, r.Value, r.Err)
			}
		case key[len(key)-1]%3 == 0:
			if !errors.Is(r.Err, ErrNotFound) {
				t.Fatalf("result %d = %q, %v; want ErrNotFound", i, r.Value, r.Err)
			}
		default:
			if r.Err != nil || string(r.Value) != "v-"+key {
				t.Fatalf("result %d = %q, %v; want %q", i, r.Value, r.Err, "v-"+key)
			}
		}
	}
	if _, err := c.Get([]byte("k00")); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("Get after the connection failed: %v, want ErrConnClosed", err)
	}
	if _, err := p.Exec(); err != nil {
		t.Fatalf("empty Exec: %v", err)
	}
	p.Put([]byte("k"), []byte("v"))
	if _, err := p.Exec(); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("Exec after the connection failed: %v, want ErrConnClosed", err)
	}
}

// TestUnsolicitedFrameFailsConn has the peer answer one Get twice. The
// first frame resolves the Get; the second has no request to answer,
// which means the stream's pairing is lost, so it fails the connection.
func TestUnsolicitedFrameFailsConn(t *testing.T) {
	c := scriptedPeer(t, func(nc net.Conn, rd *frameReader) {
		reqs, err := rd.requests(1)
		if err != nil {
			t.Errorf("peer read: %v", err)
			return
		}
		resp := wire.Response{Status: wire.StatusOK, Value: []byte("once")}
		nc.Write(appendResp(t, appendResp(t, nil, reqs[0].Op, resp), reqs[0].Op, resp))
		io.Copy(io.Discard, nc) // hold the connection open until the client closes it
	})
	if v, err := c.Get([]byte("k")); err != nil || string(v) != "once" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	c.readerWG.Wait() // the reader exits once it has failed the connection
	if err := c.stickyErr(); !errors.Is(err, ErrConnClosed) || !strings.Contains(err.Error(), "unsolicited") {
		t.Fatalf("connection error %v, want ErrConnClosed for an unsolicited response", err)
	}
	if err := c.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("Put after the unsolicited frame: %v, want ErrConnClosed", err)
	}
}

// TestResponseFraming serves the same responses whole and one byte per
// write: a 64-request burst of values of 1–40 bytes and misses, a Scan
// page and a Stats document each larger than the reader's 64 KiB buffer.
// Both must decode to the same results.
func TestResponseFraming(t *testing.T) {
	value := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, 1+i%40) }
	var page []wire.Record
	for i := 0; i < 2500; i++ {
		page = append(page, wire.Record{Key: []byte(fmt.Sprintf("scan-%07d", i)), Value: value(i)})
	}
	stats := wire.StatsPayload{Records: 7, ARTs: 3, Counters: map[string]uint64{}}
	for i := 0; i < 3000; i++ {
		stats.Counters[fmt.Sprintf("counter.%05d", i)] = uint64(i) * 1e9
	}
	doc, err := json.Marshal(stats)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 64; i++ {
		resp := wire.Response{Status: wire.StatusOK, Value: value(i)}
		if i%5 == 4 {
			resp = wire.Response{Status: wire.StatusNotFound, Msg: "not found"}
		}
		want = appendResp(t, want, wire.OpGet, resp)
	}
	scanFrame := appendResp(t, nil, wire.OpScan, wire.Response{Status: wire.StatusOK, Records: page, More: true})
	statsFrame := appendResp(t, nil, wire.OpStats, wire.Response{Status: wire.StatusOK, Value: doc})
	if len(scanFrame) <= 64<<10 || len(statsFrame) <= 64<<10 {
		t.Fatalf("Scan frame %d and Stats frame %d bytes, want both above 64 KiB", len(scanFrame), len(statsFrame))
	}

	for _, chunk := range []int{0, 1} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			write := func(nc net.Conn, b []byte) {
				for chunk > 0 && len(b) > chunk {
					nc.Write(b[:chunk])
					b = b[chunk:]
				}
				nc.Write(b)
			}
			c := scriptedPeer(t, func(nc net.Conn, rd *frameReader) {
				for _, step := range []struct {
					n   int
					out []byte
				}{{64, want}, {1, scanFrame}, {1, statsFrame}} {
					if _, err := rd.requests(step.n); err != nil {
						t.Errorf("peer read: %v", err)
						return
					}
					write(nc, step.out)
				}
			})
			p := c.Pipeline()
			for i := 0; i < 64; i++ {
				p.Get([]byte(fmt.Sprintf("k%02d", i)))
			}
			res, err := p.Exec()
			if err != nil {
				t.Fatalf("Exec: %v", err)
			}
			for i, r := range res {
				if i%5 == 4 {
					if !errors.Is(r.Err, ErrNotFound) {
						t.Fatalf("result %d = %q, %v; want ErrNotFound", i, r.Value, r.Err)
					}
				} else if r.Err != nil || !bytes.Equal(r.Value, value(i)) {
					t.Fatalf("result %d = %q, %v; want %q", i, r.Value, r.Err, value(i))
				}
			}
			recs, more, err := c.Scan(nil, nil, 0)
			if err != nil || !more || len(recs) != len(page) {
				t.Fatalf("Scan = %d records, more=%v, %v", len(recs), more, err)
			}
			for i, r := range recs {
				if !bytes.Equal(r.Key, page[i].Key) || !bytes.Equal(r.Value, page[i].Value) {
					t.Fatalf("Scan record %d = %q:%q, want %q:%q", i, r.Key, r.Value, page[i].Key, page[i].Value)
				}
			}
			st, err := c.Stats()
			if err != nil || st.Records != 7 || len(st.Counters) != 3000 || st.Counters["counter.02999"] != 2999e9 {
				t.Fatalf("Stats = records %d, %d counters, %v", st.Records, len(st.Counters), err)
			}
		})
	}
}

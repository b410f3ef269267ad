package ctrl

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"lightpath/internal/rng"
	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
)

// requestPayload encodes req into a fresh payload.
func requestPayload(req Request) []byte {
	var e snapshot.Encoder
	EncodeRequestTo(&e, req)
	return e.Bytes()
}

// responsePayload encodes resp into a fresh payload.
func responsePayload(resp Response) []byte {
	var e snapshot.Encoder
	EncodeResponseTo(&e, resp)
	return e.Bytes()
}

// TestWireRoundTrip pushes seeded random requests and responses
// through the frame I/O ServeConn and Client.Call run — encode into
// the reused encoder, frame, write, read, decode — and demands exact
// reconstruction.
func TestWireRoundTrip(t *testing.T) {
	r := rng.New(99)
	var out, in frameIO
	var buf bytes.Buffer
	for i := 0; i < 500; i++ {
		req := Request{
			ID:       r.Uint64(),
			Op:       Op(r.Intn(int(numOps))),
			A:        r.Intn(64),
			B:        r.Intn(64),
			Width:    1 + r.Intn(16),
			Circuit:  r.Intn(1000) - 1,
			Deadline: unit.Seconds(r.Float64()) * unit.Millisecond,
		}
		out.enc.Reset()
		EncodeRequestTo(&out.enc, req)
		if err := out.write(&buf); err != nil {
			t.Fatal(err)
		}
		payload, err := in.read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRequest(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got != req {
			t.Fatalf("request round trip: got %+v, want %+v", got, req)
		}

		resp := Response{
			ID:       r.Uint64(),
			Status:   Status(r.Intn(int(numStatuses))),
			Circuit:  r.Intn(1000),
			Width:    r.Intn(16),
			Degraded: r.Intn(2) == 0,
			Detail:   "detail-string with spaces",
			Queue:    r.Intn(512),
			Circuits: r.Intn(512),
		}
		for j := r.Intn(4); j > 0; j-- {
			resp.Regions = append(resp.Regions, RegionHealth{
				State: BreakerState(r.Intn(3)), Trips: r.Intn(9),
			})
		}
		out.enc.Reset()
		EncodeResponseTo(&out.enc, resp)
		if err := out.write(&buf); err != nil {
			t.Fatal(err)
		}
		payload, err = in.read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		gotR, err := DecodeResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotR, resp) {
			t.Fatalf("response round trip: got %+v, want %+v", gotR, resp)
		}
	}
}

// TestWireMalformed drives the decoders with hostile inputs: every one
// must come back as a wrapped ErrBadFrame, never a panic and never a
// zero-error success.
func TestWireMalformed(t *testing.T) {
	valid := requestPayload(Request{ID: 7, Op: OpEstablish, A: 1, B: 2, Width: 4})
	cases := map[string][]byte{
		"empty":          {},
		"truncated":      valid[:len(valid)-3],
		"trailing junk":  append(append([]byte{}, valid...), 0xaa, 0xbb),
		"unknown op":     requestPayload(Request{Op: numOps + 3}),
		"negative op":    requestPayload(Request{Op: -2}),
		"random garbage": {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07},
	}
	for name, payload := range cases {
		if _, err := DecodeRequest(payload); !errors.Is(err, ErrBadFrame) {
			t.Errorf("request %s: error %v does not wrap ErrBadFrame", name, err)
		}
	}

	validResp := responsePayload(Response{Status: StatusOK, Regions: []RegionHealth{{State: BreakerOpen}}})
	respCases := map[string][]byte{
		"empty":          {},
		"truncated":      validResp[:len(validResp)-2],
		"unknown status": responsePayload(Response{Status: numStatuses}),
		"bad breaker":    responsePayload(Response{Regions: []RegionHealth{{State: 77}}}),
	}
	for name, payload := range respCases {
		if _, err := DecodeResponse(payload); !errors.Is(err, ErrBadFrame) {
			t.Errorf("response %s: error %v does not wrap ErrBadFrame", name, err)
		}
	}
}

// TestReadFrameHostilePrefix checks the length prefix is validated
// before any allocation, and stream endings are classified: clean EOF
// at a frame boundary is io.EOF, everything else wraps ErrBadFrame.
func TestReadFrameHostilePrefix(t *testing.T) {
	var fio frameIO
	// 4 GiB declared length: must reject from the 4 header bytes alone,
	// without growing the read buffer.
	if _, err := fio.read(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff})); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized prefix: %v", err)
	}
	if cap(fio.rbuf) != 0 {
		t.Fatalf("hostile prefix grew the read buffer to %d bytes", cap(fio.rbuf))
	}
	if _, err := fio.read(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Fatalf("clean EOF: %v", err)
	}
	if _, err := fio.read(bytes.NewReader([]byte{0x01, 0x00})); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("torn header: %v", err)
	}
	// Declared 10 payload bytes, delivered 3.
	if _, err := fio.read(bytes.NewReader([]byte{0x0a, 0x00, 0x00, 0x00, 1, 2, 3})); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("torn payload: %v", err)
	}
}

// TestAppendFramePanicsOversized documents the outbound contract: this
// package never builds frames beyond MaxFrame, so trying is a bug, not
// an error path.
func TestAppendFramePanicsOversized(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized outbound frame did not panic")
		}
	}()
	appendFrame(nil, make([]byte, MaxFrame+1))
}

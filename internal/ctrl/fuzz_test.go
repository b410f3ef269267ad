package ctrl

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
)

// FuzzCtrlDecode throws arbitrary bytes at every inbound parser the
// daemon exposes to the network: the connection's frame reader (the
// frameIO.read ServeConn and Client.Call run) and both payload
// decoders. The contract under fuzzing is total: no panic, no hang,
// no unbounded allocation, and every failure classified — the frame
// reader returns io.EOF or wraps ErrBadFrame, the decoders wrap
// ErrBadFrame.
// A request that decodes successfully must re-encode byte-identically
// (request payloads are all fixed-width fields, so the codec has
// exactly one representation; responses carry uvarint-prefixed
// strings, where non-canonical-but-decodable prefixes exist, so they
// only promise classified errors).
func FuzzCtrlDecode(f *testing.F) {
	f.Add(requestPayload(Request{ID: 1, Op: OpEstablish, A: 3, B: 9, Width: 2, Deadline: unit.Millisecond}))
	f.Add(requestPayload(Request{ID: 2, Op: OpRelease, Circuit: 17}))
	f.Add(responsePayload(Response{ID: 3, Status: StatusOK, Circuit: 4, Width: 2}))
	f.Add(responsePayload(Response{ID: 4, Status: StatusOverloaded, Detail: "queue 512 full",
		Regions: []RegionHealth{{State: BreakerOpen, Trips: 3}}}))
	f.Add(appendFrame(nil, requestPayload(Request{Op: OpHealth})))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Add([]byte{0x10, 0x00, 0x00, 0x00, 1, 2, 3})

	var enc snapshot.Encoder
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeRequest(data); err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("DecodeRequest error outside taxonomy: %v", err)
			}
		} else {
			enc.Reset()
			EncodeRequestTo(&enc, req)
			if !bytes.Equal(enc.Bytes(), data) {
				t.Fatalf("request %+v re-encodes differently than its source", req)
			}
		}

		if _, err := DecodeResponse(data); err != nil && !errors.Is(err, ErrBadFrame) {
			t.Fatalf("DecodeResponse error outside taxonomy: %v", err)
		}

		// Frame reader over the same bytes: consume frames until the
		// stream ends or turns hostile, with every outcome classified.
		r := bytes.NewReader(data)
		var fio frameIO
		for {
			payload, err := fio.read(r)
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, ErrBadFrame) {
					t.Fatalf("frame read error outside taxonomy: %v", err)
				}
				break
			}
			if len(payload) > MaxFrame {
				t.Fatalf("frame read returned %d bytes beyond MaxFrame", len(payload))
			}
		}
	})
}

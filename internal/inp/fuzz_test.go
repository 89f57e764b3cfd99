package inp

import (
	"bytes"
	"encoding/binary"
	"io"
	"sync"
	"testing"
)

// FuzzReadMessage hardens the frame parser against adversarial bytes: it
// must never panic and never allocate unbounded buffers.
func FuzzReadMessage(f *testing.F) {
	var seed bytes.Buffer
	_ = writeFrame(&seed, Header{Type: MsgInitReq, Seq: 1}, InitReq{AppID: "a"})
	f.Add(seed.Bytes())
	f.Add([]byte("INP1garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, body, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		if h.Type == MsgInvalid || h.Type >= msgMax {
			t.Fatalf("parser accepted invalid type %v", h.Type)
		}
		if len(body) > MaxBody {
			t.Fatalf("parser returned %d-byte body beyond limit", len(body))
		}
	})
}

// writeFrame frames and writes one message as a single Write call.
func writeFrame(w io.Writer, h Header, body interface{}) error {
	fw := NewFrameWriter(w)
	if err := fw.WriteMessage(h, body); err != nil {
		return err
	}
	return fw.Flush()
}

// referenceFrame is an independent statement of the INIT_REQ wire format:
// the 16-byte header, then each string as a uvarint length and its bytes.
// It pins the pooled encoder byte for byte.
func referenceFrame(h Header, body InitReq) []byte {
	var raw []byte
	for _, s := range []string{body.AppID, body.Resource, body.ClientID} {
		raw = binary.AppendUvarint(raw, uint64(len(s)))
		raw = append(raw, s...)
	}
	var hdr [headerLen]byte
	copy(hdr[0:4], "INP1")
	hdr[4] = 2
	hdr[5] = uint8(h.Type)
	binary.BigEndian.PutUint32(hdr[8:12], h.Seq)
	binary.BigEndian.PutUint32(hdr[12:16], uint32(len(raw)))
	return append(hdr[:], raw...)
}

// FuzzWriteMessagePooledEquivalence pins the pooled framing: for arbitrary
// string payloads (invalid UTF-8 included), a frame assembled in arena
// storage that a larger frame has just dirtied is byte-identical to the
// reference encoding and round-trips through ReadMessage to the same
// message.
func FuzzWriteMessagePooledEquivalence(f *testing.F) {
	f.Add("webapp", "page-000", "alice", uint32(1))
	f.Add("<script>&", "a\xff\xfeb", "", uint32(0))
	f.Add("", "", "", uint32(1<<31))
	f.Fuzz(func(t *testing.T, appID, resource, clientID string, seq uint32) {
		body := InitReq{AppID: appID, Resource: resource, ClientID: clientID}
		h := Header{Type: MsgInitReq, Seq: seq}
		var got bytes.Buffer
		fw := NewFrameWriter(&got)
		dirty := AppRep{Resource: resource, Payload: bytes.Repeat([]byte{0xdd}, 600)}
		if err := fw.WriteMessage(Header{Type: MsgAppRep, Seq: seq}, &dirty); err != nil {
			t.Fatalf("dirtying write: %v", err)
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
		got.Reset()
		if err := fw.WriteMessage(h, body); err != nil {
			t.Fatalf("pooled write: %v", err)
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
		want := referenceFrame(h, body)
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("pooled frame diverged from reference:\npooled:    %q\nreference: %q", got.Bytes(), want)
		}
		rh, raw, err := ReadMessage(bytes.NewReader(got.Bytes()))
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if rh != h {
			t.Fatalf("round-trip header %+v, want %+v", rh, h)
		}
		var back InitReq
		if err := DecodeRaw(rh, raw, &back); err != nil {
			t.Fatalf("round-trip decode: %v", err)
		}
		if back != body {
			t.Fatalf("round trip decoded %+v, want %+v", back, body)
		}
	})
}

// TestWriteMessagePooledConcurrent hammers the frame pool from many
// goroutines (run under -race in CI) and checks every frame parses back
// to its own sequence number — a buffer-sharing bug would interleave them.
func TestWriteMessagePooledConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				seq := uint32(g*1000 + i)
				var buf bytes.Buffer
				if err := writeFrame(&buf, Header{Type: MsgAppReq, Seq: seq},
					AppReq{AppID: "webapp", Resource: "page", ProtocolIDs: []string{"gzip"}}); err != nil {
					t.Error(err)
					return
				}
				h, _, err := ReadMessage(&buf)
				if err != nil || h.Seq != seq {
					t.Errorf("round trip: h=%+v err=%v, want seq %d", h, err, seq)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

package inp

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"testing"
	"time"

	"fractal/internal/arena"
	"fractal/internal/core"
)

// FuzzFrameBatch pins the batching equivalence: a batch of frames queued
// through FrameWriter and emitted by one Flush is byte-identical to the
// same frames written one at a time.
func FuzzFrameBatch(f *testing.F) {
	f.Add("webapp", "mail/inbox", 3, []byte("payload"))
	f.Add("", "", 0, []byte(nil))
	f.Add("a", string(bytes.Repeat([]byte("r"), 300)), -9, bytes.Repeat([]byte("z"), 9000))
	f.Fuzz(func(t *testing.T, appID, resource string, n int, payload []byte) {
		type frame struct {
			t    MsgType
			body interface{}
		}
		frames := []frame{
			{MsgInitReq, InitReq{AppID: appID, Resource: resource}},
			{MsgInitRep, InitRep{OK: n%2 == 0, Reason: appID}},
			{MsgCliMetaRep, CliMetaRep{SessionRequests: n}},
			{MsgAppRep, AppRep{Resource: resource, Version: n, Payload: payload}},
			{MsgError, ErrorRep{Message: resource}},
		}
		var sequential bytes.Buffer
		seq := uint32(0)
		for _, fr := range frames {
			seq++
			if err := writeFrame(&sequential, Header{Type: fr.t, Seq: seq}, fr.body); err != nil {
				t.Fatalf("sequential write(%v): %v", fr.t, err)
			}
		}
		var batched bytes.Buffer
		fw := NewFrameWriter(&batched)
		seq = 0
		for _, fr := range frames {
			seq++
			if err := fw.WriteMessage(Header{Type: fr.t, Seq: seq}, fr.body); err != nil {
				t.Fatalf("batched WriteMessage(%v): %v", fr.t, err)
			}
		}
		if batched.Len() != 0 {
			t.Fatal("frames reached the stream before Flush")
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sequential.Bytes(), batched.Bytes()) {
			t.Fatalf("batched output diverges from sequential: %d vs %d bytes", batched.Len(), sequential.Len())
		}
	})
}

// binaryRoundTrip encodes body as one frame and decodes it back into out,
// exercising the full frame path (header parse included).
func binaryRoundTrip(t *testing.T, mt MsgType, body, out interface{}) {
	t.Helper()
	var wire bytes.Buffer
	fw := NewFrameWriter(&wire)
	if err := fw.WriteMessage(Header{Type: mt, Seq: 1}, body); err != nil {
		t.Fatalf("WriteMessage(%v): %v", mt, err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	h, raw, err := ReadMessage(&wire)
	if err != nil {
		t.Fatalf("reading binary %v frame: %v", mt, err)
	}
	if h.Type != mt {
		t.Fatalf("header mangled: %+v", h)
	}
	if err := DecodeRaw(Header{Type: mt}, raw, out); err != nil {
		t.Fatalf("decoding binary %v body: %v", mt, err)
	}
}

// FuzzBinaryBodyDifferential pins the body codec exact: for the request,
// reply and error bodies, a round trip must reproduce the original value
// field for field, including the nil-vs-empty distinctions of byte and
// string slices.
func FuzzBinaryBodyDifferential(f *testing.F) {
	f.Add("app", "res", "p1", "p2", 2, 3, []byte("module"), byte(0))
	f.Add("", "", "", "", 0, 0, []byte(nil), byte(3))
	f.Add("x", "y", "", "q", -5, 1<<30, bytes.Repeat([]byte{0xff, 0}, 5000), byte(1))
	f.Fuzz(func(t *testing.T, appID, resource, p1, p2 string, hv, wv int, blob []byte, flags byte) {
		var pids []string
		switch flags % 3 {
		case 1:
			pids = []string{}
		case 2:
			pids = []string{p1, p2}
		}
		if flags&4 != 0 && blob == nil {
			blob = []byte{}
		}
		check := func(mt MsgType, orig, got interface{}) {
			t.Helper()
			binaryRoundTrip(t, mt, orig, got)
			if !reflect.DeepEqual(got, orig) {
				t.Fatalf("%v round trip diverged:\n got %+v\nwant %+v", mt, got, orig)
			}
		}
		check(MsgAppReq, &AppReq{AppID: appID, Resource: resource, ProtocolIDs: pids, HaveVersion: hv}, &AppReq{})
		check(MsgAppRep, &AppRep{Resource: resource, Version: wv, PADID: appID, Payload: blob}, &AppRep{})
		check(MsgPADDownloadReq, &PADDownloadReq{PADID: appID, URL: resource}, &PADDownloadReq{})
		check(MsgPADDownloadRep, &PADDownloadRep{PADID: appID, Module: blob}, &PADDownloadRep{})
		check(MsgError, &ErrorRep{Message: p1}, &ErrorRep{})
		check(MsgAppMetaAck, &AppMetaAck{OK: flags&8 != 0, Reason: p2}, &AppMetaAck{})
	})
}

// FuzzBinaryNegotiationDifferential extends the round-trip pin to the
// negotiation-burst and topology-push bodies: metadata structs with
// floats, durations, a fixed-width digest, and nested PADMeta arrays. NaN
// is normalized to zero up front (reflect.DeepEqual cannot compare it;
// see TestBinaryFloatSpecials for the NaN/Inf wire behaviour).
func FuzzBinaryNegotiationDifferential(f *testing.F) {
	f.Add("app", "cli", "GPRS", 2100.5, 42.25, int64(100), int64(-7), 3, []byte("digest-seed-bytes-20"), byte(2))
	f.Add("", "", "", 0.0, 0.0, int64(0), int64(0), 0, []byte(nil), byte(0))
	f.Add("x", "y", "z", math.Inf(1), -1e300, int64(1)<<60, int64(-1)<<60, -1, bytes.Repeat([]byte{0xee}, 64), byte(5))
	f.Fuzz(func(t *testing.T, appID, clientID, netType string, mhz, kbps float64, d1, d2 int64, n int, dig []byte, flags byte) {
		if math.IsNaN(mhz) {
			mhz = 0
		}
		if math.IsNaN(kbps) {
			kbps = 0
		}
		dev := core.DevMeta{OSType: appID, CPUType: netType, CPUMHz: mhz, MemMB: n}
		ntwk := core.NtwkMeta{NetworkType: netType, BandwidthKbps: kbps}
		pad := core.PADMeta{
			ID: appID, Version: clientID, Protocol: netType, Size: d1,
			Overhead: core.PADOverhead{
				ServerCompStd: time.Duration(d1), ClientCompStd: time.Duration(d2),
				TrafficBytes: d2, UpstreamBytes: d1,
			},
			URL: clientID, Parent: appID, Alias: netType,
		}
		copy(pad.Digest[:], dig)
		switch flags % 3 {
		case 1:
			pad.Children = []string{}
		case 2:
			pad.Children = []string{appID, clientID}
		}
		var pads []core.PADMeta
		switch flags / 3 % 3 {
		case 1:
			pads = []core.PADMeta{}
		case 2:
			pads = []core.PADMeta{pad, pad}
		}
		check := func(mt MsgType, orig, got interface{}) {
			t.Helper()
			binaryRoundTrip(t, mt, orig, got)
			if !reflect.DeepEqual(got, orig) {
				t.Fatalf("%v round trip diverged:\n got %+v\nwant %+v", mt, got, orig)
			}
		}
		check(MsgInitReq, &InitReq{AppID: appID, Resource: netType, ClientID: clientID}, &InitReq{})
		check(MsgInitRep, &InitRep{OK: flags&8 != 0, Reason: clientID}, &InitRep{})
		check(MsgCliMetaReq, &CliMetaReq{Dev: dev, Ntwk: ntwk}, &CliMetaReq{})
		check(MsgCliMetaRep, &CliMetaRep{Dev: dev, Ntwk: ntwk, SessionRequests: n}, &CliMetaRep{})
		check(MsgPADMetaRep, &PADMetaRep{PADs: pads}, &PADMetaRep{})
		check(MsgAppMetaPush, &AppMetaPush{App: core.AppMeta{AppID: clientID, PADs: pads}}, &AppMetaPush{})
	})
}

// TestBinaryFloatSpecials pins non-finite floats: NaN and the infinities
// round-trip bit-exact.
func TestBinaryFloatSpecials(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)} {
		orig := &CliMetaReq{Dev: core.DevMeta{CPUMHz: f}, Ntwk: core.NtwkMeta{BandwidthKbps: f}}
		var got CliMetaReq
		binaryRoundTrip(t, MsgCliMetaReq, orig, &got)
		if math.Float64bits(got.Dev.CPUMHz) != math.Float64bits(f) ||
			math.Float64bits(got.Ntwk.BandwidthKbps) != math.Float64bits(f) {
			t.Errorf("float %v (bits %#x) did not round-trip bit-exact: got %v/%v",
				f, math.Float64bits(f), got.Dev.CPUMHz, got.Ntwk.BandwidthKbps)
		}
	}
}

// FuzzBinaryDecodeGarbage pins that hostile binary bodies never panic and
// never silently succeed with trailing bytes.
func FuzzBinaryDecodeGarbage(f *testing.F) {
	f.Add([]byte{0x01, 0x61, 0x00, 0x00, 0x00}, byte(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, byte(1))
	f.Fuzz(func(t *testing.T, raw []byte, which byte) {
		switch which % 12 {
		case 0:
			_ = DecodeRaw(Header{Type: MsgAppReq}, raw, &AppReq{})
		case 1:
			_ = DecodeRaw(Header{Type: MsgAppRep}, raw, &AppRep{})
		case 2:
			_ = DecodeRaw(Header{Type: MsgPADDownloadReq}, raw, &PADDownloadReq{})
		case 3:
			_ = DecodeRaw(Header{Type: MsgPADDownloadRep}, raw, &PADDownloadRep{})
		case 4:
			_ = DecodeRaw(Header{Type: MsgInitReq}, raw, &InitReq{})
		case 5:
			_ = DecodeRaw(Header{Type: MsgInitRep}, raw, &InitRep{})
		case 6:
			_ = DecodeRaw(Header{Type: MsgCliMetaReq}, raw, &CliMetaReq{})
		case 7:
			_ = DecodeRaw(Header{Type: MsgCliMetaRep}, raw, &CliMetaRep{})
		case 8:
			_ = DecodeRaw(Header{Type: MsgPADMetaRep}, raw, &PADMetaRep{})
		case 9:
			_ = DecodeRaw(Header{Type: MsgError}, raw, &ErrorRep{})
		case 10:
			_ = DecodeRaw(Header{Type: MsgAppMetaPush}, raw, &AppMetaPush{})
		case 11:
			_ = DecodeRaw(Header{Type: MsgAppMetaAck}, raw, &AppMetaAck{})
		}
	})
}

// TestFrameWriterSpliceInterleaving pins the vectored path: a batch
// mixing small frames with a frame whose module is large enough to splice
// must coalesce to exactly the concatenation of the frames flushed one at
// a time.
func TestFrameWriterSpliceInterleaving(t *testing.T) {
	module := bytes.Repeat([]byte{0xab}, spliceMin+100)
	frames := []struct {
		h    Header
		body interface{}
	}{
		{Header{Type: MsgInitRep, Seq: 1}, InitRep{OK: true}},
		{Header{Type: MsgPADDownloadRep, Seq: 2}, &PADDownloadRep{PADID: "p", Module: module}},
		{Header{Type: MsgError, Seq: 3}, ErrorRep{Message: "tail"}},
	}
	var want bytes.Buffer
	for _, fr := range frames {
		fw := NewFrameWriter(&want)
		if err := fw.WriteMessage(fr.h, fr.body); err != nil {
			t.Fatal(err)
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	var got bytes.Buffer
	fw := NewFrameWriter(&got)
	for _, fr := range frames {
		if err := fw.WriteMessage(fr.h, fr.body); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("spliced batch diverges: %d vs %d bytes", got.Len(), want.Len())
	}
	// And the spliced frame still decodes.
	r := bytes.NewReader(got.Bytes())
	for i := 0; i < 3; i++ {
		if _, _, err := ReadMessage(r); err != nil {
			t.Fatalf("frame %d unreadable: %v", i, err)
		}
	}
}

// TestConnSessionPipelineDetection pins the serving-path fast path: after
// one Recv from a flushed two-frame burst, InputPending reports the
// second frame already buffered.
func TestConnSessionPipelineDetection(t *testing.T) {
	var wire bytes.Buffer
	cc := NewConn(&wire)
	if err := cc.Queue(MsgInitReq, InitReq{AppID: "app"}); err != nil {
		t.Fatal(err)
	}
	if err := cc.Queue(MsgCliMetaRep, CliMetaRep{SessionRequests: 4}); err != nil {
		t.Fatal(err)
	}
	if err := cc.Flush(); err != nil {
		t.Fatal(err)
	}
	sess := arena.AcquireSession()
	defer sess.Release()
	sc := NewConnSession(&wire, sess)
	var init InitReq
	if err := sc.RecvInto(MsgInitReq, &init); err != nil {
		t.Fatal(err)
	}
	if init.AppID != "app" {
		t.Fatalf("init decoded as %+v", init)
	}
	if !sc.InputPending() {
		t.Fatal("pipelined frame not detected after first Recv")
	}
	var meta CliMetaRep
	if err := sc.RecvInto(MsgCliMetaRep, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.SessionRequests != 4 {
		t.Fatalf("meta decoded as %+v", meta)
	}
	if sc.InputPending() {
		t.Fatal("InputPending true after stream drained")
	}
}

// TestSessionConnRejectsHostileHeader keeps the hostile-length discipline
// on the session read path: a header claiming 64 MB with a truncated body
// must fail without reserving the claimed size.
func TestSessionConnRejectsHostileHeader(t *testing.T) {
	var wire bytes.Buffer
	hdr := make([]byte, headerLen)
	copy(hdr, magic[:])
	hdr[4] = Version
	hdr[5] = uint8(MsgAppReq)
	hdr[8+3] = 1 // seq 1
	hdr[12] = 0x04
	wire.Write(hdr) // claims 0x04000000 = 64 MB, delivers nothing
	sess := arena.AcquireSession()
	defer sess.Release()
	sc := NewConnSession(&wire, sess)
	if _, _, err := sc.Recv(); err == nil {
		t.Fatal("truncated 64 MB claim accepted")
	}
}

// TestBatchedFramingSteadyStateAllocs pins the arena promise on the write
// path: a warm queue+flush of a negotiation burst or of a payload reply
// allocates nothing at all.
func TestBatchedFramingSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	initReq := &InitReq{AppID: "app", Resource: "res"}
	initRep := &InitRep{OK: true}
	rep := &AppRep{Resource: "res", Version: 3, PADID: "pad", Payload: bytes.Repeat([]byte("x"), 256)}
	fw := NewFrameWriter(io.Discard)
	warm := func(fn func()) float64 {
		for i := 0; i < 16; i++ {
			fn()
		}
		return testing.AllocsPerRun(200, fn)
	}
	burst := func() {
		if err := fw.WriteMessage(Header{Type: MsgInitReq, Seq: 1}, initReq); err != nil {
			t.Fatal(err)
		}
		if err := fw.WriteMessage(Header{Type: MsgInitRep, Seq: 2}, initRep); err != nil {
			t.Fatal(err)
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if avg := warm(burst); avg > 0 {
		t.Errorf("warm negotiation burst allocates %.1f per run, want 0", avg)
	}
	replySend := func() {
		if err := fw.WriteMessage(Header{Type: MsgAppRep, Seq: 1}, rep); err != nil {
			t.Fatal(err)
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if avg := warm(replySend); avg > 0 {
		t.Errorf("warm reply send allocates %.1f per run, want 0", avg)
	}
}

// BenchmarkINPRoundTrip measures framing cost alone — encode one hot
// message and decode it back, no sockets. Snapshotted in BENCH_proxy.json
// under its historical sub-benchmark name.
func BenchmarkINPRoundTrip(b *testing.B) {
	rep := &AppRep{Resource: "mail/inbox", Version: 7, PADID: "pad-differential", Payload: bytes.Repeat([]byte("x"), 512)}
	b.Run("binary", func(b *testing.B) {
		var wire bytes.Buffer
		fw := NewFrameWriter(&wire)
		var got AppRep
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wire.Reset()
			if err := fw.WriteMessage(Header{Type: MsgAppRep, Seq: 1}, rep); err != nil {
				b.Fatal(err)
			}
			if err := fw.Flush(); err != nil {
				b.Fatal(err)
			}
			_, raw, err := ReadMessage(&wire)
			if err != nil {
				b.Fatal(err)
			}
			got = AppRep{}
			if err := DecodeRaw(Header{Type: MsgAppRep}, raw, &got); err != nil {
				b.Fatal(err)
			}
		}
		_ = got
	})
}

package codec

import (
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
)

// These tests pin the hostile-header allocation behaviour the wiretaint
// analyzer enforces statically: a payload whose header claims gigabytes
// of content but delivers nothing must fail fast without the decoder
// reserving anything close to the claimed size. The bounds are loose
// (megabytes of headroom over the ~1 MB clamp) so runtime allocation
// noise cannot flake them — the regression they catch is the original
// make([]byte, 0, curLen) which allocated 2-4 GB up front.

// allocDelta reports bytes allocated while running f on a quiesced heap.
func allocDelta(t *testing.T, f func()) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// appendUvarints appends each value in uvarint encoding.
func appendUvarints(dst []byte, vs ...uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range vs {
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], v)]...)
	}
	return dst
}

func TestRsyncHostileLengthNoHugeAllocation(t *testing.T) {
	r, err := NewRsync(64)
	if err != nil {
		t.Fatal(err)
	}
	// Header: block size 64, 2 GB of claimed content, empty old version,
	// one op — then the stream ends.
	payload := appendUvarints(append([]byte(nil), rsyncMagic...), 64, 1<<31, 0, 1)
	delta := allocDelta(t, func() {
		if _, err := r.Decode(nil, payload); err == nil {
			t.Error("truncated 2 GB-claiming payload decoded without error")
		} else if !strings.Contains(err.Error(), "truncated") {
			t.Errorf("unexpected decode error: %v", err)
		}
	})
	if delta > 16<<20 {
		t.Fatalf("decoding a truncated 2 GB-claiming rsync payload allocated %d bytes", delta)
	}
}

func TestBitmapHostileLengthNoHugeAllocation(t *testing.T) {
	b, err := NewBitmap(16)
	if err != nil {
		t.Fatal(err)
	}
	// Header: block size 16 and 4 GB of claimed content, which implies a
	// 32 MB bitmap — none of which arrives.
	payload := appendUvarints(append([]byte(nil), bitmapMagic...), 16, 1<<32, 0)
	delta := allocDelta(t, func() {
		if _, err := b.Decode(nil, payload); err == nil {
			t.Error("truncated 4 GB-claiming payload decoded without error")
		} else if !strings.Contains(err.Error(), "truncated bitmap") {
			t.Errorf("unexpected decode error: %v", err)
		}
	})
	if delta > 8<<20 {
		t.Fatalf("decoding a truncated 4 GB-claiming bitmap payload allocated %d bytes", delta)
	}
}

func TestVaryBlockHostileLengthNoHugeAllocation(t *testing.T) {
	v, err := NewVaryBlock()
	if err != nil {
		t.Fatal(err)
	}
	// Header: 2 GB of claimed content, empty old version, one op — then
	// the stream ends.
	payload := appendUvarints(append([]byte(nil), varyMagic...), 1<<31, 0, 1)
	delta := allocDelta(t, func() {
		if _, err := v.Decode(nil, payload); err == nil {
			t.Error("truncated 2 GB-claiming payload decoded without error")
		} else if !strings.Contains(err.Error(), "truncated") {
			t.Errorf("unexpected decode error: %v", err)
		}
	})
	if delta > 16<<20 {
		t.Fatalf("decoding a truncated 2 GB-claiming varyblock payload allocated %d bytes", delta)
	}
}

func TestGzipHostileTrailerNoHugeAllocation(t *testing.T) {
	g := NewGzip()
	payload, err := g.Encode(nil, []byte("tiny"))
	if err != nil {
		t.Fatal(err)
	}
	// ISIZE claims 4 GB of content for a four-byte stream.
	binary.LittleEndian.PutUint32(payload[len(payload)-4:], 0xFFFFFFFF)
	delta := allocDelta(t, func() {
		if _, err := g.Decode(nil, payload); err == nil {
			t.Error("payload with a forged ISIZE decoded without error")
		}
	})
	if delta > 4<<20 {
		t.Fatalf("decoding a 4 GB-claiming gzip trailer allocated %d bytes", delta)
	}
}

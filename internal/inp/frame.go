package inp

import (
	"fmt"
	"io"
	"net"

	"fractal/internal/arena"
)

// FrameWriter coalesces consecutive frames into one write: frames queued
// with WriteMessage are assembled contiguously in an arena buffer and
// nothing reaches the stream until Flush, which issues a single vectored
// write (writev via net.Buffers) on TCP and a single coalesced Write on
// any other stream. Large binary bodies are spliced as their own vector
// entries instead of being copied into the assembly buffer.
//
// A FrameWriter serves one connection and is not safe for concurrent use.
// The batched wire bytes are byte-identical to the same frames flushed
// one by one, pinned by FuzzFrameBatch.
type FrameWriter struct {
	w   io.Writer
	tcp *net.TCPConn // non-nil when vectored writes are available
	// buf borrows arena storage while frames are queued and returns it on
	// Flush, so idle connections pin no assembly storage.
	buf    arena.Buffer
	vecs   []frameVec
	nb     net.Buffers // reusable backing for the vectored flush
	extLen int         // total spliced (zero-copy) bytes queued
	queued int
}

// frameVec marks a splice point in the queued byte stream: the internal
// assembly buffer up to offset end is followed by the external slice ext.
type frameVec struct {
	end int
	ext []byte
}

// NewFrameWriter returns a batching frame writer over w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	fw := &FrameWriter{}
	fw.init(w)
	return fw
}

// init prepares an embedded FrameWriter in place.
func (fw *FrameWriter) init(w io.Writer) {
	fw.w = w
	if tc, ok := w.(*net.TCPConn); ok {
		fw.tcp = tc
	}
}

// WriteMessage queues one frame; nothing reaches the stream until Flush.
// On error nothing is queued, so a batch of earlier frames survives
// intact.
//
//fractal:hotpath every batched exchange queues frames here
func (fw *FrameWriter) WriteMessage(h Header, body interface{}) error {
	if err := fw.appendFrame(h, body); err != nil {
		return err
	}
	fw.queued++
	return nil
}

// splice records p as a zero-copy vector entry following everything
// queued so far. p must stay unmodified until Flush returns.
func (fw *FrameWriter) splice(p []byte) {
	fw.vecs = append(fw.vecs, frameVec{end: fw.buf.Len(), ext: p})
	fw.extLen += len(p)
}

// Buffered reports how many queued bytes await Flush.
func (fw *FrameWriter) Buffered() int {
	return fw.buf.Len() + fw.extLen
}

// Flush writes every queued frame in one call and releases the assembly
// buffer back to the arena. Flushing an empty writer is a no-op.
//
//fractal:hotpath one flush per direction per session phase
func (fw *FrameWriter) Flush() error {
	n := fw.queued
	fw.queued = 0
	defer fw.buf.Release()
	var err error
	if len(fw.vecs) == 0 {
		if fw.buf.Len() > 0 {
			_, err = fw.w.Write(fw.buf.Bytes())
		}
	} else {
		err = fw.flushVectored()
	}
	if err != nil {
		return fmt.Errorf("inp: flushing %d queued frame(s): %w", n, err)
	}
	return nil
}

// flushVectored interleaves the internal buffer segments with the spliced
// slices. On TCP the segments go out as one writev; elsewhere they are
// coalesced into scratch arena storage for a single Write.
func (fw *FrameWriter) flushVectored() error {
	b := fw.buf.Bytes()
	fw.nb = fw.nb[:0]
	off := 0
	for _, v := range fw.vecs {
		if v.end > off {
			fw.nb = append(fw.nb, b[off:v.end])
			off = v.end
		}
		if len(v.ext) > 0 {
			fw.nb = append(fw.nb, v.ext)
		}
	}
	if off < len(b) {
		fw.nb = append(fw.nb, b[off:])
	}
	fw.vecs = fw.vecs[:0]
	fw.extLen = 0
	if fw.tcp != nil {
		// net.Buffers.WriteTo consumes its receiver slice, so hand it a
		// view; fw.nb's backing array stays reusable for the next flush.
		bufs := fw.nb
		_, err := bufs.WriteTo(fw.tcp)
		return err
	}
	var scratch arena.Buffer
	for _, seg := range fw.nb {
		scratch.Write(seg)
	}
	_, err := fw.w.Write(scratch.Bytes())
	scratch.Release()
	return err
}

// readBufSize is the per-connection buffered-read window: one mid-class
// arena borrow, large enough that a pipelined negotiation burst arrives
// in a single fill.
const readBufSize = 4 << 10

// bufReader is a minimal buffered reader over session-scoped arena
// storage. Unlike bufio.Reader it exposes how many undrained bytes sit in
// its buffer, which the serving path uses to detect pipelined requests,
// and its buffer returns to the arena with the owning session instead of
// being pinned by an idle connection.
type bufReader struct {
	src  io.Reader
	buf  []byte
	r, w int
}

// buffered reports the undrained byte count.
func (b *bufReader) buffered() int { return b.w - b.r }

// fill blocks until at least one undrained byte is buffered.
func (b *bufReader) fill() error {
	for b.r == b.w {
		n, err := b.src.Read(b.buf)
		if n > 0 {
			b.r, b.w = 0, n
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Read refills from src at most once per call; reads at least as large as
// the buffer bypass it entirely so large bodies stream straight through.
//
//fractal:hotpath every buffered session read lands here
func (b *bufReader) Read(p []byte) (int, error) {
	if b.r == b.w {
		if len(p) >= len(b.buf) {
			return b.src.Read(p)
		}
		n, err := b.src.Read(b.buf)
		if n <= 0 {
			return 0, err
		}
		b.r, b.w = 0, n
	}
	n := copy(p, b.buf[b.r:b.w])
	b.r += n
	return n, nil
}

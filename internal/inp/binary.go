package inp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"fractal/internal/core"
)

// The INP body codec. Every message body is encoded field by field:
// strings are uvarint length + bytes; byte slices, string slices, and
// meta arrays use a presence-aware prefix (0 = nil, n+1 = n elements) so
// nil and empty survive the round trip exactly; ints are signed varints;
// float64s are 8 fixed big-endian IEEE-754 bytes; digests are raw
// fixed-width bytes. Each body type names its own message type, so a
// body staged under the wrong type is refused before it reaches the wire.

// spliceMin is the smallest []byte field worth splicing as its own writev
// vector instead of copying into the assembly buffer.
const spliceMin = 4 << 10

// wireBody is a message body the codec can encode. Value receivers put
// the methods in both T's and *T's method sets, so bodies may be staged
// by value or by pointer.
type wireBody interface {
	msgType() MsgType
	appendTo(fw *FrameWriter)
}

// wireDecoder is the decode half, implemented on pointers. It takes the
// raw body rather than a shared reader so each decoder's reader stays on
// its own stack frame.
type wireDecoder interface {
	msgType() MsgType
	decodeFrom(raw []byte) error
}

// appendFrame appends one complete frame. On error every
// queued-but-unfinished byte (including splice vectors) is rolled back so
// the batch survives intact.
//
//fractal:hotpath every frame is assembled here
func (fw *FrameWriter) appendFrame(h Header, body interface{}) error {
	wb, ok := body.(wireBody)
	if !ok || wb.msgType() != h.Type {
		return fmt.Errorf("inp: no codec for %v body of type %T", h.Type, body)
	}
	start := fw.buf.Len()
	vecs, ext := len(fw.vecs), fw.extLen
	fw.buf.Write(zeroHeader[:]) // reserve the header slot
	wb.appendTo(fw)
	n := fw.buf.Len() - start - headerLen + (fw.extLen - ext)
	if n > MaxBody {
		fw.buf.SetBytes(fw.buf.Bytes()[:start])
		fw.vecs = fw.vecs[:vecs]
		fw.extLen = ext
		return fmt.Errorf("inp: %v body of %d bytes exceeds limit", h.Type, n)
	}
	patchHeader(fw.buf.Bytes()[start:start+headerLen], h, uint32(n))
	return nil
}

var zeroHeader [headerLen]byte

func (AppReq) msgType() MsgType         { return MsgAppReq }
func (AppRep) msgType() MsgType         { return MsgAppRep }
func (PADDownloadReq) msgType() MsgType { return MsgPADDownloadReq }
func (PADDownloadRep) msgType() MsgType { return MsgPADDownloadRep }
func (InitReq) msgType() MsgType        { return MsgInitReq }
func (InitRep) msgType() MsgType        { return MsgInitRep }
func (CliMetaReq) msgType() MsgType     { return MsgCliMetaReq }
func (CliMetaRep) msgType() MsgType     { return MsgCliMetaRep }
func (PADMetaRep) msgType() MsgType     { return MsgPADMetaRep }
func (ErrorRep) msgType() MsgType       { return MsgError }
func (AppMetaPush) msgType() MsgType    { return MsgAppMetaPush }
func (AppMetaAck) msgType() MsgType     { return MsgAppMetaAck }

func (m AppReq) appendTo(fw *FrameWriter) {
	fw.appendString(m.AppID)
	fw.appendString(m.Resource)
	fw.appendStrings(m.ProtocolIDs)
	fw.appendInt(m.HaveVersion)
}

func (m AppRep) appendTo(fw *FrameWriter) {
	fw.appendString(m.Resource)
	fw.appendInt(m.Version)
	fw.appendString(m.PADID)
	fw.appendBlob(m.Payload)
}

func (m PADDownloadReq) appendTo(fw *FrameWriter) {
	fw.appendString(m.PADID)
	fw.appendString(m.URL)
}

func (m PADDownloadRep) appendTo(fw *FrameWriter) {
	fw.appendString(m.PADID)
	fw.appendBlob(m.Module)
}

func (m InitReq) appendTo(fw *FrameWriter) {
	fw.appendString(m.AppID)
	fw.appendString(m.Resource)
	fw.appendString(m.ClientID)
}

func (m InitRep) appendTo(fw *FrameWriter) {
	fw.appendBool(m.OK)
	fw.appendString(m.Reason)
}

func (m CliMetaReq) appendTo(fw *FrameWriter) {
	fw.appendDevMeta(&m.Dev)
	fw.appendNtwkMeta(&m.Ntwk)
}

func (m CliMetaRep) appendTo(fw *FrameWriter) {
	fw.appendDevMeta(&m.Dev)
	fw.appendNtwkMeta(&m.Ntwk)
	fw.appendInt(m.SessionRequests)
}

func (m PADMetaRep) appendTo(fw *FrameWriter) { fw.appendPADMetas(m.PADs) }

func (m ErrorRep) appendTo(fw *FrameWriter) { fw.appendString(m.Message) }

func (m AppMetaPush) appendTo(fw *FrameWriter) {
	fw.appendString(m.App.AppID)
	fw.appendPADMetas(m.App.PADs)
}

func (m AppMetaAck) appendTo(fw *FrameWriter) {
	fw.appendBool(m.OK)
	fw.appendString(m.Reason)
}

// appendPADMetas encodes a presence-aware PAD metadata array.
//
//fractal:hotpath PAD metadata arrays ride every PAD_META_REP
func (fw *FrameWriter) appendPADMetas(pads []core.PADMeta) {
	if pads == nil {
		fw.appendUvarint(0)
		return
	}
	fw.appendUvarint(uint64(len(pads)) + 1)
	for i := range pads {
		fw.appendPADMeta(&pads[i])
	}
}

//fractal:hotpath device metadata rides every negotiation burst
func (fw *FrameWriter) appendDevMeta(d *core.DevMeta) {
	fw.appendString(d.OSType)
	fw.appendString(d.CPUType)
	fw.appendFloat(d.CPUMHz)
	fw.appendInt(d.MemMB)
}

//fractal:hotpath network metadata rides every negotiation burst
func (fw *FrameWriter) appendNtwkMeta(n *core.NtwkMeta) {
	fw.appendString(n.NetworkType)
	fw.appendFloat(n.BandwidthKbps)
}

//fractal:hotpath PAD metadata arrays ride every PAD_META_REP
func (fw *FrameWriter) appendPADMeta(p *core.PADMeta) {
	fw.appendString(p.ID)
	fw.appendString(p.Version)
	fw.appendString(p.Protocol)
	fw.appendInt64(p.Size)
	fw.appendInt64(int64(p.Overhead.ServerCompStd))
	fw.appendInt64(int64(p.Overhead.ClientCompStd))
	fw.appendInt64(p.Overhead.TrafficBytes)
	fw.appendInt64(p.Overhead.UpstreamBytes)
	fw.buf.Write(p.Digest[:])
	fw.appendString(p.URL)
	fw.appendString(p.Parent)
	fw.appendStrings(p.Children)
	fw.appendString(p.Alias)
}

// --- encode primitives ---

//fractal:hotpath varint fields are appended here
func (fw *FrameWriter) appendUvarint(x uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], x)
	fw.buf.Write(tmp[:n])
}

//fractal:hotpath signed fields are appended here
func (fw *FrameWriter) appendInt(v int) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], int64(v))
	fw.buf.Write(tmp[:n])
}

//fractal:hotpath 64-bit counters and durations are appended here
func (fw *FrameWriter) appendInt64(v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	fw.buf.Write(tmp[:n])
}

//fractal:hotpath boolean fields are appended here
func (fw *FrameWriter) appendBool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	fw.buf.WriteByte(b)
}

// appendFloat encodes f as 8 fixed big-endian IEEE-754 bytes — unlike
// JSON it round-trips NaN and the infinities.
//
//fractal:hotpath metadata rates are appended here
func (fw *FrameWriter) appendFloat(f float64) {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], math.Float64bits(f))
	fw.buf.Write(tmp[:])
}

//fractal:hotpath string fields are appended here
func (fw *FrameWriter) appendString(s string) {
	fw.appendUvarint(uint64(len(s)))
	fw.buf.WriteString(s)
}

// appendBlob encodes b with a presence-aware prefix (0 = nil, n+1 = n
// bytes). Large payloads splice as their own writev vector instead of
// being copied; they must stay unmodified until Flush.
//
//fractal:hotpath payload and module bodies are appended here
func (fw *FrameWriter) appendBlob(b []byte) {
	if b == nil {
		fw.appendUvarint(0)
		return
	}
	fw.appendUvarint(uint64(len(b)) + 1)
	if len(b) >= spliceMin {
		fw.splice(b)
		return
	}
	fw.buf.Write(b)
}

//fractal:hotpath protocol-id lists are appended here
func (fw *FrameWriter) appendStrings(ss []string) {
	if ss == nil {
		fw.appendUvarint(0)
		return
	}
	fw.appendUvarint(uint64(len(ss)) + 1)
	for _, s := range ss {
		fw.appendString(s)
	}
}

// --- decode ---

var errBinTruncated = errors.New("truncated field")

// binReader decodes the binary wire format. Every wire-declared length is
// bound-checked against the bytes actually present before any allocation
// is sized from it, so a hostile length cannot inflate memory.
type binReader struct {
	b   []byte
	off int
}

// end reports a decode error, or trailing bytes after the last field.
func (r *binReader) end(err error) error {
	if err == nil && r.off != len(r.b) {
		return fmt.Errorf("%d trailing bytes", len(r.b)-r.off)
	}
	return err
}

func (r *binReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, errBinTruncated
	}
	r.off += n
	return v, nil
}

func (r *binReader) int_() (int, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, errBinTruncated
	}
	r.off += n
	return int(v), nil
}

func (r *binReader) int64_() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, errBinTruncated
	}
	r.off += n
	return v, nil
}

func (r *binReader) bool_() (bool, error) {
	if r.off >= len(r.b) {
		return false, errBinTruncated
	}
	b := r.b[r.off]
	r.off++
	if b > 1 {
		return false, fmt.Errorf("bad bool byte %d", b)
	}
	return b == 1, nil
}

func (r *binReader) float() (float64, error) {
	if len(r.b)-r.off < 8 {
		return 0, errBinTruncated
	}
	f := math.Float64frombits(binary.BigEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return f, nil
}

// fixed copies an exact-width field (e.g. a digest) out of the raw body.
func (r *binReader) fixed(dst []byte) error {
	if len(r.b)-r.off < len(dst) {
		return errBinTruncated
	}
	copy(dst, r.b[r.off:])
	r.off += len(dst)
	return nil
}

func (r *binReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.b)-r.off) {
		return "", errBinTruncated
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *binReader) blob() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil || n == 0 {
		return nil, err
	}
	n--
	if n > uint64(len(r.b)-r.off) {
		return nil, errBinTruncated
	}
	// Copied out rather than aliased: raw bodies live in a
	// connection-scoped buffer the next Recv overwrites, while decoded
	// payloads outlive it.
	out := make([]byte, n)
	copy(out, r.b[r.off:r.off+int(n)])
	r.off += int(n)
	return out, nil
}

func (r *binReader) strs() ([]string, error) {
	n, err := r.uvarint()
	if err != nil || n == 0 {
		return nil, err
	}
	n--
	if n > uint64(len(r.b)-r.off) { // each element costs at least one byte
		return nil, errBinTruncated
	}
	out := make([]string, n)
	for i := range out {
		if out[i], err = r.str(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DecodeRaw decodes a raw body returned by Recv into v, which must be a
// pointer to the body struct of h's message type. Trailing bytes are
// rejected.
func DecodeRaw(h Header, raw []byte, v interface{}) error {
	d, ok := v.(wireDecoder)
	if !ok || d.msgType() != h.Type {
		return fmt.Errorf("inp: decoding %v body into %T", h.Type, v)
	}
	if err := d.decodeFrom(raw); err != nil {
		return fmt.Errorf("inp: decoding %v body: %w", h.Type, err)
	}
	return nil
}

func (m *AppReq) decodeFrom(raw []byte) (err error) {
	r := binReader{b: raw}
	if m.AppID, err = r.str(); err != nil {
		return err
	}
	if m.Resource, err = r.str(); err != nil {
		return err
	}
	if m.ProtocolIDs, err = r.strs(); err != nil {
		return err
	}
	m.HaveVersion, err = r.int_()
	return r.end(err)
}

func (m *AppRep) decodeFrom(raw []byte) (err error) {
	r := binReader{b: raw}
	if m.Resource, err = r.str(); err != nil {
		return err
	}
	if m.Version, err = r.int_(); err != nil {
		return err
	}
	if m.PADID, err = r.str(); err != nil {
		return err
	}
	m.Payload, err = r.blob()
	return r.end(err)
}

func (m *PADDownloadReq) decodeFrom(raw []byte) (err error) {
	r := binReader{b: raw}
	if m.PADID, err = r.str(); err != nil {
		return err
	}
	m.URL, err = r.str()
	return r.end(err)
}

func (m *PADDownloadRep) decodeFrom(raw []byte) (err error) {
	r := binReader{b: raw}
	if m.PADID, err = r.str(); err != nil {
		return err
	}
	m.Module, err = r.blob()
	return r.end(err)
}

func (m *InitReq) decodeFrom(raw []byte) (err error) {
	r := binReader{b: raw}
	if m.AppID, err = r.str(); err != nil {
		return err
	}
	if m.Resource, err = r.str(); err != nil {
		return err
	}
	m.ClientID, err = r.str()
	return r.end(err)
}

func (m *InitRep) decodeFrom(raw []byte) (err error) {
	r := binReader{b: raw}
	if m.OK, err = r.bool_(); err != nil {
		return err
	}
	m.Reason, err = r.str()
	return r.end(err)
}

func (m *CliMetaReq) decodeFrom(raw []byte) (err error) {
	r := binReader{b: raw}
	if err = r.decodeDevMeta(&m.Dev); err != nil {
		return err
	}
	return r.end(r.decodeNtwkMeta(&m.Ntwk))
}

func (m *CliMetaRep) decodeFrom(raw []byte) (err error) {
	r := binReader{b: raw}
	if err = r.decodeDevMeta(&m.Dev); err != nil {
		return err
	}
	if err = r.decodeNtwkMeta(&m.Ntwk); err != nil {
		return err
	}
	m.SessionRequests, err = r.int_()
	return r.end(err)
}

func (m *PADMetaRep) decodeFrom(raw []byte) (err error) {
	r := binReader{b: raw}
	m.PADs, err = r.padMetas()
	return r.end(err)
}

func (m *ErrorRep) decodeFrom(raw []byte) (err error) {
	r := binReader{b: raw}
	m.Message, err = r.str()
	return r.end(err)
}

func (m *AppMetaPush) decodeFrom(raw []byte) (err error) {
	r := binReader{b: raw}
	if m.App.AppID, err = r.str(); err != nil {
		return err
	}
	m.App.PADs, err = r.padMetas()
	return r.end(err)
}

func (m *AppMetaAck) decodeFrom(raw []byte) (err error) {
	r := binReader{b: raw}
	if m.OK, err = r.bool_(); err != nil {
		return err
	}
	m.Reason, err = r.str()
	return r.end(err)
}

func (r *binReader) decodeDevMeta(d *core.DevMeta) (err error) {
	if d.OSType, err = r.str(); err != nil {
		return err
	}
	if d.CPUType, err = r.str(); err != nil {
		return err
	}
	if d.CPUMHz, err = r.float(); err != nil {
		return err
	}
	d.MemMB, err = r.int_()
	return err
}

func (r *binReader) decodeNtwkMeta(n *core.NtwkMeta) (err error) {
	if n.NetworkType, err = r.str(); err != nil {
		return err
	}
	n.BandwidthKbps, err = r.float()
	return err
}

func (r *binReader) decodePADMeta(p *core.PADMeta) (err error) {
	if p.ID, err = r.str(); err != nil {
		return err
	}
	if p.Version, err = r.str(); err != nil {
		return err
	}
	if p.Protocol, err = r.str(); err != nil {
		return err
	}
	if p.Size, err = r.int64_(); err != nil {
		return err
	}
	var d int64
	if d, err = r.int64_(); err != nil {
		return err
	}
	p.Overhead.ServerCompStd = time.Duration(d)
	if d, err = r.int64_(); err != nil {
		return err
	}
	p.Overhead.ClientCompStd = time.Duration(d)
	if p.Overhead.TrafficBytes, err = r.int64_(); err != nil {
		return err
	}
	if p.Overhead.UpstreamBytes, err = r.int64_(); err != nil {
		return err
	}
	if err = r.fixed(p.Digest[:]); err != nil {
		return err
	}
	if p.URL, err = r.str(); err != nil {
		return err
	}
	if p.Parent, err = r.str(); err != nil {
		return err
	}
	if p.Children, err = r.strs(); err != nil {
		return err
	}
	p.Alias, err = r.str()
	return err
}

// padMetas decodes a presence-aware PAD metadata array.
func (r *binReader) padMetas() ([]core.PADMeta, error) {
	n, err := r.uvarint()
	if err != nil || n == 0 {
		return nil, err
	}
	n--
	// Each PADMeta costs well over one byte on the wire; one is a safe
	// floor for pre-sizing against a hostile count.
	if n > uint64(len(r.b)-r.off) {
		return nil, errBinTruncated
	}
	pads := make([]core.PADMeta, n)
	for i := range pads {
		if err := r.decodePADMeta(&pads[i]); err != nil {
			return nil, err
		}
	}
	return pads, nil
}

// Package inp implements the Interactive Negotiation Protocol of Section
// 3.3 (Figure 4): the framed message exchange between client, adaptation
// proxy, CDN, and application server. Every packet carries an INP header
// maintaining protocol integrity (magic, version, type, sequence number,
// body length), and every body uses the one binary codec of binary.go.
package inp

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"fractal/internal/core"
)

// MsgType identifies an INP message (Figure 4's message formats).
type MsgType uint8

// The message types of the negotiation and application exchanges.
const (
	MsgInvalid MsgType = iota
	MsgInitReq
	MsgInitRep
	MsgCliMetaReq
	MsgCliMetaRep
	MsgPADMetaRep
	MsgPADDownloadReq
	MsgPADDownloadRep
	MsgAppReq
	MsgAppRep
	MsgError
	MsgAppMetaPush
	MsgAppMetaAck
	msgMax
)

var msgNames = map[MsgType]string{
	MsgInitReq:        "INIT_REQ",
	MsgInitRep:        "INIT_REP",
	MsgCliMetaReq:     "CLI_META_REQ",
	MsgCliMetaRep:     "CLI_META_REP",
	MsgPADMetaRep:     "PAD_META_REP",
	MsgPADDownloadReq: "PAD_DOWNLOAD_REQ",
	MsgPADDownloadRep: "PAD_DOWNLOAD_REP",
	MsgAppReq:         "APP_REQ",
	MsgAppRep:         "APP_REP",
	MsgError:          "ERROR",
	MsgAppMetaPush:    "APP_META_PUSH",
	MsgAppMetaAck:     "APP_META_ACK",
}

// String returns the paper's message name.
func (t MsgType) String() string {
	if n, ok := msgNames[t]; ok {
		return n
	}
	return fmt.Sprintf("MSG(%d)", uint8(t))
}

// Protocol constants.
const (
	// Version is the INP protocol version carried in every header. It is
	// 2 because version 1 framed JSON bodies; every body is now binary, so
	// a version-1 peer is refused at the header instead of misdecoded.
	Version = 2
	// MaxBody bounds a message body; larger frames are rejected before
	// allocation.
	MaxBody = 64 << 20
	// headerLen is the fixed frame header size: magic(4) version(1)
	// type(1) reserved(2) seq(4) length(4).
	headerLen = 16
)

var magic = [4]byte{'I', 'N', 'P', '1'}

// Header is the per-frame part of the INP header segment: the message type
// and sequence number. The version byte is always Version, so it is
// stamped on write and checked on read rather than carried here.
type Header struct {
	Type MsgType
	Seq  uint32
}

// patchHeader backfills a reserved header slot once the body length is
// known.
func patchHeader(hdr []byte, h Header, n uint32) {
	copy(hdr[0:4], magic[:])
	hdr[4] = Version
	hdr[5] = uint8(h.Type)
	binary.BigEndian.PutUint32(hdr[8:12], h.Seq)
	binary.BigEndian.PutUint32(hdr[12:16], n)
}

// maxBodyReserve caps how much body memory is allocated ahead of bytes
// actually arriving: a header may claim up to MaxBody, but the buffer only
// grows in maxBodyReserve steps as the stream delivers, so a hostile
// header alone cannot size a 64 MB allocation.
const maxBodyReserve = 1 << 20

// parseHeader validates a raw header and returns it with the body length.
// Every frame carries Version; any other value is refused.
func parseHeader(hdr []byte) (Header, uint32, error) {
	if [4]byte(hdr[0:4]) != magic {
		return Header{}, 0, fmt.Errorf("inp: bad magic %q", hdr[0:4])
	}
	if hdr[4] != Version {
		return Header{}, 0, fmt.Errorf("inp: unsupported protocol version %d", hdr[4])
	}
	h := Header{Type: MsgType(hdr[5]), Seq: binary.BigEndian.Uint32(hdr[8:12])}
	if h.Type == MsgInvalid || h.Type >= msgMax {
		return Header{}, 0, fmt.Errorf("inp: unknown message type %d", hdr[5])
	}
	n := binary.BigEndian.Uint32(hdr[12:16])
	if n > MaxBody {
		return Header{}, 0, fmt.Errorf("inp: %v body of %d bytes exceeds limit", h.Type, n)
	}
	return h, n, nil
}

// ReadMessage reads one framed message, returning its header and raw body.
//
//fractal:hotpath every INP exchange reads through here
func ReadMessage(r io.Reader) (Header, []byte, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Header{}, nil, fmt.Errorf("inp: reading header: %w", err)
	}
	h, n, err := parseHeader(hdr[:])
	if err != nil {
		return Header{}, nil, err
	}
	reserve := n
	if reserve > maxBodyReserve {
		reserve = maxBodyReserve
	}
	body := make([]byte, 0, reserve)
	for len(body) < int(n) {
		step := int(n) - len(body)
		if step > maxBodyReserve {
			step = maxBodyReserve
		}
		off := len(body)
		body = slices.Grow(body, step)[:off+step]
		if _, err := io.ReadFull(r, body[off:]); err != nil {
			return Header{}, nil, fmt.Errorf("inp: reading %v body: %w", h.Type, err)
		}
	}
	return h, body, nil
}

// --- message bodies (Figure 4, bottom) ---

// InitReq opens a negotiation; its payload is the application request.
// ClientID optionally identifies an authenticated principal for the
// proxy's access-control policy (empty = anonymous).
type InitReq struct {
	AppID    string
	Resource string
	ClientID string
}

// InitRep acknowledges INIT_REQ.
type InitRep struct {
	OK     bool
	Reason string
}

// CliMetaReq carries empty DevMeta/NtwkMeta templates "to be filled by
// the client".
type CliMetaReq struct {
	Dev  core.DevMeta
	Ntwk core.NtwkMeta
}

// CliMetaRep returns the client's probed metadata plus the expected
// session length used to amortize PAD downloads.
type CliMetaRep struct {
	Dev             core.DevMeta
	Ntwk            core.NtwkMeta
	SessionRequests int
}

// PADMetaRep delivers the negotiated PAD metadata array (redacted: no tree
// links), with digests and URLs inserted by the distribution manager.
type PADMetaRep struct {
	PADs []core.PADMeta
}

// PADDownloadReq asks a PAD server/edge for a module by id.
type PADDownloadReq struct {
	PADID string
	URL   string
}

// PADDownloadRep returns the packed mobile-code module.
type PADDownloadRep struct {
	PADID  string
	Module []byte
}

// AppReq starts (or continues) the application session, carrying the
// negotiated protocol identifications so the server selects matching PADs.
type AppReq struct {
	AppID       string
	Resource    string
	ProtocolIDs []string
	// HaveVersion tells the server which version of the resource the
	// client already holds (0 = none), enabling differential encoding.
	HaveVersion int
}

// AppRep returns the adapted application content.
type AppRep struct {
	Resource string
	Version  int
	PADID    string
	Payload  []byte
}

// ErrorRep reports a failure to the peer.
type ErrorRep struct {
	Message string
}

// AppMetaPush is the application server's topology push to the adaptation
// proxy ("The application server pushes new AppMeta to the negotiation
// manager when the protocol adaptation topology is first created or
// changed later").
type AppMetaPush struct {
	App core.AppMeta
}

// AppMetaAck acknowledges a topology push.
type AppMetaAck struct {
	OK     bool
	Reason string
}

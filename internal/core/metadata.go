// Package core implements the paper's primary contribution: the Fractal
// adaptation machinery. It provides the negotiation metadata formats
// (Figure 3), the protocol adaptation tree with symbolic links (Section
// 3.4.1), the normalized ratio matrices and linear overhead model
// (Equations 1–3), the adaptation path search algorithm (Figure 6), and
// the adaptation cache used by the proxy's distribution manager.
package core

import (
	"crypto/sha1"
	"fmt"
	"math"
	"time"
)

// DevMeta is the device metadata a client reports during negotiation:
// { Operating system type, CPU type, CPU speed, memory size }.
type DevMeta struct {
	OSType  string
	CPUType string
	CPUMHz  float64
	MemMB   int
}

// Validate reports whether the device metadata is usable.
func (d DevMeta) Validate() error {
	if d.OSType == "" || d.CPUType == "" {
		return fmt.Errorf("core: DevMeta needs OS and CPU types, got %q/%q", d.OSType, d.CPUType)
	}
	if !positiveFinite(d.CPUMHz) {
		return fmt.Errorf("core: DevMeta CPU speed must be positive and finite, got %v", d.CPUMHz)
	}
	if d.MemMB <= 0 {
		return fmt.Errorf("core: DevMeta memory must be positive, got %d", d.MemMB)
	}
	return nil
}

// positiveFinite reports whether x is a usable speed or bandwidth: NaN
// and ±Inf are refused, since a NaN never equals itself and so could never
// find or evict its own adaptation-cache entry.
func positiveFinite(x float64) bool {
	return x > 0 && x <= math.MaxFloat64
}

// Key renders the device for logs and for the client's persisted
// protocol cache, whose on-disk format it is part of.
func (d DevMeta) Key() string {
	return fmt.Sprintf("os=%s|cpu=%s|mhz=%.0f|mem=%d", d.OSType, d.CPUType, d.CPUMHz, d.MemMB)
}

// NtwkMeta is the network metadata a client reports:
// { Network type, Network bandwidth }.
type NtwkMeta struct {
	NetworkType   string
	BandwidthKbps float64
}

// Validate reports whether the network metadata is usable.
func (n NtwkMeta) Validate() error {
	if n.NetworkType == "" {
		return fmt.Errorf("core: NtwkMeta needs a network type")
	}
	if !positiveFinite(n.BandwidthKbps) {
		return fmt.Errorf("core: NtwkMeta bandwidth must be positive and finite, got %v", n.BandwidthKbps)
	}
	return nil
}

// Key renders the network like DevMeta.Key, and is likewise part of the
// client's on-disk format.
func (n NtwkMeta) Key() string {
	return fmt.Sprintf("net=%s|bw=%.0f", n.NetworkType, n.BandwidthKbps)
}

// Env is one client environment: the pair the negotiation manager adapts
// for.
type Env struct {
	Dev  DevMeta
	Ntwk NtwkMeta
}

// Validate reports whether the environment is usable.
func (e Env) Validate() error {
	if err := e.Dev.Validate(); err != nil {
		return err
	}
	return e.Ntwk.Validate()
}

// PADOverhead is the pre-measured overhead vector of one PAD (Equation 1):
// computing overheads on the reference 500 MHz processor and the expected
// traffic for a standard request, which the linear model scales to a
// concrete client.
type PADOverhead struct {
	// ServerCompStd is the server-side computing overhead per request on
	// the reference CPU.
	ServerCompStd time.Duration
	// ClientCompStd is the client-side computing overhead per request on
	// the reference CPU.
	ClientCompStd time.Duration
	// TrafficBytes is the expected downstream bytes per request.
	TrafficBytes int64
	// UpstreamBytes is the expected request-direction bytes per request
	// beyond the request itself (e.g. Bitmap's client digests).
	UpstreamBytes int64
}

// Validate reports whether the overhead vector is usable.
func (o PADOverhead) Validate() error {
	if o.ServerCompStd < 0 || o.ClientCompStd < 0 {
		return fmt.Errorf("core: negative computing overhead %v/%v", o.ServerCompStd, o.ClientCompStd)
	}
	if o.TrafficBytes < 0 || o.UpstreamBytes < 0 {
		return fmt.Errorf("core: negative traffic overhead %d/%d", o.TrafficBytes, o.UpstreamBytes)
	}
	return nil
}

// PADMeta is the per-adaptor metadata exchanged in negotiation (Figure 3):
// { PAD ID, PAD size, PAD overhead, Message digest, URL, Parent link,
// Child links }. Protocol names the implementation the PAD carries; Alias,
// when non-empty, marks this entry as a symbolic copy of another PAD that
// is required by more than one parent (Section 3.4.1).
type PADMeta struct {
	ID       string
	Version  string
	Protocol string
	Size     int64
	Overhead PADOverhead
	Digest   [sha1.Size]byte
	URL      string
	Parent   string   // empty = child of the application root
	Children []string // ids of child PADs (one must accompany this PAD)
	Alias    string   // symbolic link target, if any
}

// Validate reports whether the metadata is structurally usable.
func (p PADMeta) Validate() error {
	if p.ID == "" {
		return fmt.Errorf("core: PADMeta needs an id")
	}
	if p.Alias == "" && p.Protocol == "" {
		return fmt.Errorf("core: PAD %s needs a protocol name", p.ID)
	}
	if p.Alias == p.ID {
		return fmt.Errorf("core: PAD %s is a symbolic link to itself", p.ID)
	}
	if p.Size < 0 {
		return fmt.Errorf("core: PAD %s has negative size %d", p.ID, p.Size)
	}
	if err := p.Overhead.Validate(); err != nil {
		return fmt.Errorf("core: PAD %s: %w", p.ID, err)
	}
	for _, c := range p.Children {
		if c == p.ID {
			return fmt.Errorf("core: PAD %s lists itself as a child", p.ID)
		}
	}
	return nil
}

// Redacted returns a copy with the tree-structure links hidden, as the
// distribution manager does before sending PADMeta to a client ("hides the
// parent and child links since the exposure to the client is
// unnecessary").
func (p PADMeta) Redacted() PADMeta {
	q := p
	q.Parent = ""
	q.Children = nil
	return q
}

// AppMeta is the application metadata the server pushes to the adaptation
// proxy: { Application ID, PADMeta 1..n }, from which the proxy builds the
// protocol adaptation tree.
type AppMeta struct {
	AppID string
	PADs  []PADMeta
}

// Validate reports whether the application metadata is structurally
// usable (full referential checks happen in BuildPAT).
func (a AppMeta) Validate() error {
	if a.AppID == "" {
		return fmt.Errorf("core: AppMeta needs an application id")
	}
	if len(a.PADs) == 0 {
		return fmt.Errorf("core: AppMeta %s has no PADs", a.AppID)
	}
	seen := map[string]bool{}
	for _, p := range a.PADs {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("core: AppMeta %s: %w", a.AppID, err)
		}
		if seen[p.ID] {
			return fmt.Errorf("core: AppMeta %s has duplicate PAD id %s", a.AppID, p.ID)
		}
		seen[p.ID] = true
	}
	return nil
}

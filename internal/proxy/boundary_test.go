package proxy

import (
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fractal/internal/inp"
	"fractal/internal/netsim"
)

// These tests pin ServeConn's persistent-connection boundary semantics
// for every role: a peer that disconnects *between* sessions is a clean
// goodbye (ServeConn returns nil, and Serve logs nothing), while EOF
// before the first message, mid-header, or mid-body is a protocol error —
// over real TCP and the in-memory netsim stream the simulations use.

var transports = []string{"tcp", "netsim"}

// startServeConn runs ServeConn on the server end of a fresh transport
// pair and returns the client end plus the ServeConn result channel.
func startServeConn(t *testing.T, transport string, srv roleServer) (net.Conn, chan error) {
	t.Helper()
	errc := make(chan error, 1)
	if transport == "netsim" {
		client, server := netsim.StreamPair()
		go func() {
			defer server.Close()
			errc <- srv.ServeConn(server)
		}()
		return client, errc
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, aerr := ln.Accept()
		if aerr != nil {
			errc <- aerr
			return
		}
		defer conn.Close()
		errc <- srv.ServeConn(conn)
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return client, errc
}

func closeWriteEnd(t *testing.T, conn net.Conn) {
	t.Helper()
	cw, ok := conn.(interface{ CloseWrite() error })
	if !ok {
		t.Fatalf("%T does not support CloseWrite", conn)
	}
	if err := cw.CloseWrite(); err != nil {
		t.Fatal(err)
	}
}

// forEachRole runs fn once per transport and role.
func forEachRole(t *testing.T, fn func(t *testing.T, transport string, r role)) {
	for _, transport := range transports {
		t.Run(transport, func(t *testing.T) {
			for _, r := range roles {
				t.Run(r.name, func(t *testing.T) { fn(t, transport, r) })
			}
		})
	}
}

// TestServeConnCleanEOFAtSessionBoundary: two back-to-back sessions on
// one connection (the persistent-conn case), then a half-close at the
// boundary. ServeConn must report a clean nil.
func TestServeConnCleanEOFAtSessionBoundary(t *testing.T) {
	forEachRole(t, func(t *testing.T, transport string, r role) {
		conn, errc := startServeConn(t, transport, r.start(t, 4, t.Logf))
		defer conn.Close()
		c := inp.NewConn(conn)
		for i := 0; i < 2; i++ {
			if err := r.session(c); err != nil {
				t.Fatalf("session %d: %v", i, err)
			}
		}
		closeWriteEnd(t, conn)
		if err := waitErr(t, "ServeConn", errc); err != nil {
			t.Fatalf("clean boundary EOF => %v, want nil", err)
		}
	})
}

// TestServeCleanEOFLogsNothing: the same clean goodbye through the accept
// loop must not reach the session-error log.
func TestServeCleanEOFLogsNothing(t *testing.T) {
	for _, r := range roles {
		t.Run(r.name, func(t *testing.T) {
			var logged atomic.Int32
			srv := r.start(t, 4, func(format string, args ...interface{}) {
				logged.Add(1)
				t.Logf(format, args...)
			})
			addr, serveDone := serveOnLoopback(t, srv)
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := r.session(inp.NewConn(conn)); err != nil {
				t.Fatal(err)
			}
			closeWriteEnd(t, conn)
			// The server closes its end once it sees the boundary EOF.
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("server end after boundary EOF: read %v, want EOF", err)
			}
			if err := srv.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
			if err := waitErr(t, "Serve", serveDone); err != nil {
				t.Errorf("serve returned %v", err)
			}
			if n := logged.Load(); n != 0 {
				t.Errorf("clean boundary EOF logged %d session errors", n)
			}
		})
	}
}

// TestServeConnEOFBeforeFirstMessage: a connection that closes without a
// single frame is an error, not a clean session.
func TestServeConnEOFBeforeFirstMessage(t *testing.T) {
	forEachRole(t, func(t *testing.T, transport string, r role) {
		conn, errc := startServeConn(t, transport, r.start(t, 4, t.Logf))
		defer conn.Close()
		closeWriteEnd(t, conn)
		err := waitErr(t, "ServeConn", errc)
		if err == nil || !strings.Contains(err.Error(), "reading first message") {
			t.Fatalf("EOF before first message => %v, want reading-first-message error", err)
		}
	})
}

// truncatedSession runs one complete session, then sends the first cut
// bytes of the next session's opening frame and half-closes.
func truncatedSession(t *testing.T, transport string, r role, cut func(frame []byte) []byte) error {
	t.Helper()
	conn, errc := startServeConn(t, transport, r.start(t, 4, t.Logf))
	defer conn.Close()
	if err := r.session(inp.NewConn(conn)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(cut(r.renderOpener(t))); err != nil {
		t.Fatal(err)
	}
	closeWriteEnd(t, conn)
	return waitErr(t, "ServeConn", errc)
}

// TestServeConnEOFMidHeader: a partial header after a completed session
// is a protocol error, not a boundary.
func TestServeConnEOFMidHeader(t *testing.T) {
	forEachRole(t, func(t *testing.T, transport string, r role) {
		err := truncatedSession(t, transport, r, func(f []byte) []byte { return f[:7] })
		if err == nil || !strings.Contains(err.Error(), "reading next session") {
			t.Fatalf("EOF mid-header => %v, want reading-next-session error", err)
		}
	})
}

// TestServeConnEOFMidBody: a complete header whose body never finishes
// is a protocol error.
func TestServeConnEOFMidBody(t *testing.T) {
	forEachRole(t, func(t *testing.T, transport string, r role) {
		err := truncatedSession(t, transport, r, func(f []byte) []byte { return f[:len(f)-3] })
		if err == nil || !strings.Contains(err.Error(), "reading next session") {
			t.Fatalf("EOF mid-body => %v, want reading-next-session error", err)
		}
	})
}

package proxy

import (
	"bytes"
	"errors"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"fractal/internal/appserver"
	"fractal/internal/cdn"
	"fractal/internal/inp"
	"fractal/internal/mobilecode"
	"fractal/internal/netsim"
	"fractal/internal/workload"
)

// The three INP serving roles share one serving skeleton, so the
// shutdown and session-boundary contracts are pinned once, over a table
// of all three: the adaptation proxy, the PAD server, and the application
// server.

// roleServer is the serving surface every role exposes.
type roleServer interface {
	Serve(net.Listener) error
	ServeConn(net.Conn) error
	Close() error
}

// role is one INP serving role under test.
type role struct {
	name string
	// start builds a fresh front end.
	start func(t *testing.T, maxConcurrent int, logf func(string, ...interface{})) roleServer
	// session runs one complete session from the client end of c.
	session func(c *inp.Conn) error
	// opener is a session's first request.
	opener inp.MsgType
	body   interface{}
}

var roles = []role{
	{
		name: "proxy",
		start: func(t *testing.T, n int, logf func(string, ...interface{})) roleServer {
			srv, err := NewServer(newTestProxy(t), n, logf)
			if err != nil {
				t.Fatal(err)
			}
			return srv
		},
		session: func(c *inp.Conn) error { return benchSession(c, desktopEnv()) },
		opener:  inp.MsgInitReq,
		body:    inp.InitReq{AppID: "webapp"},
	},
	{
		name: "cdn",
		start: func(t *testing.T, n int, logf func(string, ...interface{})) roleServer {
			origin, err := cdn.NewOrigin(netsim.SharedServer{Name: "origin", UplinkKbps: 10000, Rho: 0.8, BaseRTT: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if err := origin.Publish("/pads/pad-x", bytes.Repeat([]byte("m"), 4096)); err != nil {
				t.Fatal(err)
			}
			srv, err := cdn.NewPADServer(origin, n, logf)
			if err != nil {
				t.Fatal(err)
			}
			return srv
		},
		session: func(c *inp.Conn) error {
			var rep inp.PADDownloadRep
			return c.Call(inp.MsgPADDownloadReq, inp.PADDownloadReq{PADID: "pad-x"}, inp.MsgPADDownloadRep, &rep)
		},
		opener: inp.MsgPADDownloadReq,
		body:   inp.PADDownloadReq{PADID: "pad-x"},
	},
	{
		name: "appserver",
		start: func(t *testing.T, n int, logf func(string, ...interface{})) roleServer {
			srv, err := appserver.NewINPServer(newTestAppServer(t), n, logf)
			if err != nil {
				t.Fatal(err)
			}
			return srv
		},
		session: func(c *inp.Conn) error {
			var rep inp.AppRep
			req := inp.AppReq{AppID: "webapp", Resource: "page-000", ProtocolIDs: []string{"pad-gzip"}}
			return c.Call(inp.MsgAppReq, req, inp.MsgAppRep, &rep)
		},
		opener: inp.MsgAppReq,
		body:   inp.AppReq{AppID: "webapp", Resource: "page-000", ProtocolIDs: []string{"pad-gzip"}},
	},
}

// newTestAppServer builds a small application server with the builtin
// PADs deployed.
func newTestAppServer(t *testing.T) *appserver.Server {
	t.Helper()
	signer, err := mobilecode.NewSigner("roles-test")
	if err != nil {
		t.Fatal(err)
	}
	app, err := appserver.New("webapp", signer)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := workload.Generate(workload.Config{Pages: 2, TextBytes: 1024, Images: 1, ImageBytes: 4096, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.InstallCorpus(corpus); err != nil {
		t.Fatal(err)
	}
	if err := app.DeployPADs("1.0"); err != nil {
		t.Fatal(err)
	}
	return app
}

// renderOpener returns the wire bytes of the role's opening frame.
func (r role) renderOpener(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := inp.NewConn(&buf)
	if err := c.Send(r.opener, r.body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// serveOnLoopback runs srv.Serve on a fresh loopback listener.
func serveOnLoopback(t *testing.T, srv roleServer) (addr string, serveDone chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone = make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	return ln.Addr().String(), serveDone
}

// gatedConn parks a client mid-frame: its first Write sends only the
// 16-byte frame header and holds the rest until open is closed, so the
// server sees a session that has started but not finished.
type gatedConn struct {
	net.Conn
	open   chan struct{}
	parked bool
}

func (g *gatedConn) Write(p []byte) (int, error) {
	if g.parked || len(p) <= 16 {
		return g.Conn.Write(p)
	}
	g.parked = true
	if _, err := g.Conn.Write(p[:16]); err != nil {
		return 0, err
	}
	<-g.open
	n, err := g.Conn.Write(p[16:])
	return 16 + n, err
}

// inFlightSession starts a session that stalls after its first frame
// header; release lets it finish, and the returned channel reports the
// session's outcome.
func inFlightSession(t *testing.T, r role, addr string) (release func(), result chan error) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	g := &gatedConn{Conn: conn, open: make(chan struct{})}
	result = make(chan error, 1)
	go func() {
		err := r.session(inp.NewConn(g))
		conn.Close()
		result <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the server read the header
	return func() { close(g.open) }, result
}

func waitErr(t *testing.T, what string, c chan error) error {
	t.Helper()
	select {
	case err := <-c:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return", what)
		return nil
	}
}

// TestServerCloseDrainsInFlightSessions is the regression test for Close
// returning while sessions were still running: Close must block until the
// in-flight session completes.
func TestServerCloseDrainsInFlightSessions(t *testing.T) {
	for _, r := range roles {
		t.Run(r.name, func(t *testing.T) {
			srv := r.start(t, 4, t.Logf)
			addr, serveDone := serveOnLoopback(t, srv)
			release, session := inFlightSession(t, r, addr)

			closeDone := make(chan error, 1)
			go func() { closeDone <- srv.Close() }()
			select {
			case err := <-closeDone:
				t.Fatalf("Close returned (%v) while a session was still in flight", err)
			case <-time.After(100 * time.Millisecond):
			}
			release()
			if err := waitErr(t, "in-flight session", session); err != nil {
				t.Fatalf("in-flight session failed to complete during shutdown: %v", err)
			}
			if err := waitErr(t, "Close", closeDone); err != nil {
				t.Errorf("close: %v", err)
			}
			if err := waitErr(t, "Serve", serveDone); err != nil {
				t.Errorf("serve returned %v", err)
			}
		})
	}
}

// TestServerCloseUnblocksSemaphoreWait covers the second half of the
// shutdown bug: with the concurrency limit saturated, the accept loop sits
// blocked handing a new connection a slot; Close must unblock it and drop
// the pending connection instead of leaving it hanging or serving it
// after shutdown began.
func TestServerCloseUnblocksSemaphoreWait(t *testing.T) {
	for _, r := range roles {
		t.Run(r.name, func(t *testing.T) {
			srv := r.start(t, 1, t.Logf)
			addr, serveDone := serveOnLoopback(t, srv)
			// Session 1 occupies the only slot and stays in flight.
			release, session := inFlightSession(t, r, addr)
			// Session 2 is accepted but cannot get a slot.
			conn2, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn2.Close()
			time.Sleep(50 * time.Millisecond) // let the accept loop block on the slot

			closeDone := make(chan error, 1)
			go func() { closeDone <- srv.Close() }()
			_ = conn2.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := conn2.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("pending connection after Close: read %v, want it dropped", err)
			}
			release()
			if err := waitErr(t, "in-flight session", session); err != nil {
				t.Fatalf("in-flight session failed during shutdown: %v", err)
			}
			if err := waitErr(t, "Close", closeDone); err != nil {
				t.Errorf("close: %v", err)
			}
			if err := waitErr(t, "Serve", serveDone); err != nil {
				t.Errorf("serve returned %v", err)
			}
		})
	}
}

// TestServerCloseDropsIdleConnection: a client that completed a session
// and holds its persistent connection open is idle at a session
// boundary. Close must drop it and return promptly rather than wait for
// the client to hang up, which no daemon's SIGTERM path could otherwise
// rely on.
func TestServerCloseDropsIdleConnection(t *testing.T) {
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

			closeDone := make(chan error, 1)
			go func() { closeDone <- srv.Close() }()
			if err := waitErr(t, "Close", closeDone); err != nil {
				t.Errorf("close: %v", err)
			}
			if err := waitErr(t, "Serve", serveDone); err != nil {
				t.Errorf("serve returned %v", err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("idle connection after Close: read %v, want it dropped", err)
			}
			if n := logged.Load(); n != 0 {
				t.Errorf("dropping an idle connection logged %d session errors", n)
			}
		})
	}
}

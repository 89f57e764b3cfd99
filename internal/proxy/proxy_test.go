package proxy

import (
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"fractal/internal/core"
	"fractal/internal/inp"
)

// testApp builds a one-level PAT like the case study (Figure 8) with
// distinguishable costs so different environments pick different PADs.
func testApp() core.AppMeta {
	pad := func(id, proto string, clientStd time.Duration, traffic int64) core.PADMeta {
		return core.PADMeta{
			ID: id, Protocol: proto, Size: 4096,
			Overhead: core.PADOverhead{ClientCompStd: clientStd, TrafficBytes: traffic},
		}
	}
	return core.AppMeta{
		AppID: "webapp",
		PADs: []core.PADMeta{
			pad("pad-direct", "direct", 0, 140000),
			pad("pad-gzip", "gzip", 40*time.Millisecond, 50000),
			pad("pad-bitmap", "bitmap", 85*time.Millisecond, 30000),
		},
	}
}

func testModel(t testing.TB) core.OverheadModel {
	t.Helper()
	ms, err := core.CaseStudyMatrices()
	if err != nil {
		t.Fatal(err)
	}
	return core.OverheadModel{
		Matrices:          ms,
		Rho:               0.8,
		ServerCPUMHz:      2000,
		IncludeServerComp: true,
		SessionRequests:   75,
	}
}

func desktopEnv() core.Env {
	return core.Env{
		Dev:  core.DevMeta{OSType: core.OSFedora, CPUType: core.CPUTypeP4, CPUMHz: 2000, MemMB: 512},
		Ntwk: core.NtwkMeta{NetworkType: core.NetLAN, BandwidthKbps: 100000},
	}
}

func pdaEnv() core.Env {
	return core.Env{
		Dev:  core.DevMeta{OSType: core.OSWinCE, CPUType: core.CPUTypePXA255, CPUMHz: 400, MemMB: 64},
		Ntwk: core.NtwkMeta{NetworkType: core.NetBluetooth, BandwidthKbps: 723},
	}
}

func newTestProxy(t testing.TB) *Proxy {
	t.Helper()
	p, err := New(testModel(t), 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.PushAppMeta(testApp()); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNegotiateSelectsPerEnvironment(t *testing.T) {
	p := newTestProxy(t)
	fast, err := p.Negotiate("webapp", desktopEnv(), 75)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := p.Negotiate("webapp", pdaEnv(), 75)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast) != 1 || len(slow) != 1 {
		t.Fatalf("path lengths %d/%d, want 1/1 (one-level tree)", len(fast), len(slow))
	}
	if fast[0].ID == slow[0].ID {
		t.Fatalf("both environments selected %s; adaptation is not environment-sensitive", fast[0].ID)
	}
	if fast[0].ID != "pad-direct" {
		t.Errorf("desktop-LAN selected %s, want pad-direct", fast[0].ID)
	}
	if slow[0].ID != "pad-bitmap" {
		t.Errorf("PDA-Bluetooth selected %s, want pad-bitmap", slow[0].ID)
	}
}

func TestNegotiateRedactsAndFillsURL(t *testing.T) {
	p := newTestProxy(t)
	pads, err := p.Negotiate("webapp", desktopEnv(), 75)
	if err != nil {
		t.Fatal(err)
	}
	for _, pm := range pads {
		if pm.Parent != "" || pm.Children != nil {
			t.Errorf("PAD %s leaked tree links to the client", pm.ID)
		}
		if pm.URL == "" {
			t.Errorf("PAD %s missing download URL", pm.ID)
		}
	}
}

func TestNegotiateCacheHit(t *testing.T) {
	p := newTestProxy(t)
	env := desktopEnv()
	if _, err := p.Negotiate("webapp", env, 75); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Negotiate("webapp", env, 75); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Negotiations != 2 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v, want 2 negotiations / 1 cache hit", st)
	}
	// A different environment misses.
	if _, err := p.Negotiate("webapp", pdaEnv(), 75); err != nil {
		t.Fatal(err)
	}
	if p.Stats().CacheHits != 1 {
		t.Fatal("different environment hit the cache")
	}
}

func TestPushAppMetaInvalidatesCache(t *testing.T) {
	// An app id may contain '|'; a push must still drop that app's entries.
	for _, appID := range []string{"webapp", "news|v2"} {
		p, err := New(testModel(t), 128)
		if err != nil {
			t.Fatal(err)
		}
		app := testApp()
		app.AppID = appID
		if err := p.PushAppMeta(app); err != nil {
			t.Fatal(err)
		}
		env := desktopEnv()
		if _, err := p.Negotiate(appID, env, 75); err != nil {
			t.Fatal(err)
		}
		// Change the topology so direct disappears; cached result must go.
		app.PADs = app.PADs[1:]
		if err := p.PushAppMeta(app); err != nil {
			t.Fatal(err)
		}
		pads, err := p.Negotiate(appID, env, 75)
		if err != nil {
			t.Fatal(err)
		}
		if pads[0].ID == "pad-direct" {
			t.Fatalf("app %q: stale cached negotiation survived a topology push", appID)
		}
		if p.Stats().CacheHits != 0 {
			t.Fatalf("app %q: cache hit recorded across invalidation", appID)
		}
	}
}

// TestNegotiateForRefusesNonFiniteEnv: NaN never equals itself, so a NaN
// scalar would add a cache entry no later negotiation could find or evict.
// The proxy refuses such metadata before it counts or caches anything.
func TestNegotiateForRefusesNonFiniteEnv(t *testing.T) {
	p := newTestProxy(t)
	if _, _, err := p.NegotiateFor("", "webapp", desktopEnv(), 75); err != nil {
		t.Fatal(err)
	}
	before, entries := p.Stats(), p.cache.Len()
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		mhz, bw := desktopEnv(), desktopEnv()
		mhz.Dev.CPUMHz = x
		bw.Ntwk.BandwidthKbps = x
		for _, env := range []core.Env{mhz, bw} {
			if _, _, err := p.NegotiateFor("", "webapp", env, 75); err == nil {
				t.Fatalf("negotiation with %+v succeeded", env)
			}
		}
	}
	if got := p.Stats().Negotiations; got != before.Negotiations {
		t.Fatalf("Negotiations = %d after refused envs, want %d", got, before.Negotiations)
	}
	if got := p.cache.Len(); got != entries {
		t.Fatalf("cache Len() = %d after refused envs, want %d", got, entries)
	}
}

func TestNegotiateErrors(t *testing.T) {
	p := newTestProxy(t)
	if _, err := p.Negotiate("unknown-app", desktopEnv(), 1); err == nil {
		t.Error("negotiation for unknown app succeeded")
	}
	bad := desktopEnv()
	bad.Dev.CPUMHz = 0
	if _, err := p.Negotiate("webapp", bad, 1); err == nil {
		t.Error("negotiation with invalid metadata succeeded")
	}
	if err := p.PushAppMeta(core.AppMeta{AppID: "x"}); err == nil {
		t.Error("invalid AppMeta accepted")
	}
}

func TestNegotiationManagerDirect(t *testing.T) {
	nm, err := NewNegotiationManager(testModel(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := nm.PushAppMeta(testApp()); err != nil {
		t.Fatal(err)
	}
	if apps := nm.Apps(); len(apps) != 1 || apps[0] != "webapp" {
		t.Fatalf("apps = %v", apps)
	}
	res, err := nm.Negotiate("webapp", desktopEnv(), 75)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total <= 0 {
		t.Fatalf("total overhead = %v", res.Total)
	}
	// Session override: negative falls back to the model default.
	if _, err := nm.Negotiate("webapp", desktopEnv(), -1); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(core.OverheadModel{}, 10); err == nil {
		t.Error("invalid model accepted")
	}
	if _, err := New(testModel(t), 0); err == nil {
		t.Error("zero cache capacity accepted")
	}
	if _, err := NewServer(nil, 1, nil); err == nil {
		t.Error("nil proxy accepted")
	}
	p := newTestProxy(t)
	if _, err := NewServer(p, 0, nil); err == nil {
		t.Error("zero concurrency accepted")
	}
}

// runNegotiation performs the client side of Figure 4 against an INP
// endpoint and returns the negotiated PADs.
func runNegotiation(t *testing.T, addr string, env core.Env) ([]core.PADMeta, error) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	c := inp.NewConn(conn)
	var initRep inp.InitRep
	if err := c.Call(inp.MsgInitReq, inp.InitReq{AppID: "webapp", Resource: "page-000"}, inp.MsgInitRep, &initRep); err != nil {
		return nil, err
	}
	if !initRep.OK {
		return nil, fmt.Errorf("INIT refused: %s", initRep.Reason)
	}
	var tmpl inp.CliMetaReq
	if err := c.RecvInto(inp.MsgCliMetaReq, &tmpl); err != nil {
		return nil, err
	}
	var padRep inp.PADMetaRep
	if err := c.Call(inp.MsgCliMetaRep, inp.CliMetaRep{Dev: env.Dev, Ntwk: env.Ntwk, SessionRequests: 75}, inp.MsgPADMetaRep, &padRep); err != nil {
		return nil, err
	}
	return padRep.PADs, nil
}

func startServer(t *testing.T, p *Proxy) (addr string, shutdown func()) {
	t.Helper()
	srv, err := NewServer(p, 16, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return ln.Addr().String(), func() {
		if err := srv.Close(); err != nil {
			t.Logf("close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve returned %v", err)
		}
	}
}

func TestServerFullNegotiationOverTCP(t *testing.T) {
	p := newTestProxy(t)
	addr, shutdown := startServer(t, p)
	defer shutdown()
	pads, err := runNegotiation(t, addr, desktopEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(pads) != 1 || pads[0].ID != "pad-direct" {
		t.Fatalf("negotiated %v, want pad-direct", pads)
	}
}

func TestServerReportsNegotiationFailure(t *testing.T) {
	p := newTestProxy(t)
	addr, shutdown := startServer(t, p)
	defer shutdown()
	bad := desktopEnv()
	bad.Ntwk.BandwidthKbps = 0
	_, err := runNegotiation(t, addr, bad)
	if err == nil || !strings.Contains(err.Error(), "peer error") {
		t.Fatalf("err = %v, want peer error", err)
	}
}

func TestServerRejectsEmptyAppID(t *testing.T) {
	p := newTestProxy(t)
	addr, shutdown := startServer(t, p)
	defer shutdown()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := inp.NewConn(conn)
	var rep inp.InitRep
	err = c.Call(inp.MsgInitReq, inp.InitReq{}, inp.MsgInitRep, &rep)
	if err == nil || !strings.Contains(err.Error(), "missing application id") {
		t.Fatalf("err = %v, want missing-app-id", err)
	}
}

func TestServerConcurrentNegotiations(t *testing.T) {
	p := newTestProxy(t)
	addr, shutdown := startServer(t, p)
	defer shutdown()
	const clients = 32
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			env := desktopEnv()
			if i%2 == 1 {
				env = pdaEnv()
			}
			pads, err := runNegotiation(t, addr, env)
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", i, err)
				return
			}
			want := "pad-direct"
			if i%2 == 1 {
				want = "pad-bitmap"
			}
			if pads[0].ID != want {
				errs <- fmt.Errorf("client %d negotiated %s, want %s", i, pads[0].ID, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := p.Stats(); st.Negotiations != clients {
		t.Errorf("negotiations = %d, want %d", st.Negotiations, clients)
	}
}

func TestServerRejectsGarbageAndSurvives(t *testing.T) {
	p := newTestProxy(t)
	addr, shutdown := startServer(t, p)
	defer shutdown()
	// Raw garbage bytes: the session errors out server-side without
	// taking down the accept loop.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// A real negotiation still works afterwards.
	pads, err := runNegotiation(t, addr, desktopEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(pads) != 1 {
		t.Fatalf("pads = %d", len(pads))
	}
}

func TestServerRejectsWrongOpeningMessage(t *testing.T) {
	p := newTestProxy(t)
	addr, shutdown := startServer(t, p)
	defer shutdown()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := inp.NewConn(conn)
	var rep inp.AppRep
	err = c.Call(inp.MsgAppReq, inp.AppReq{AppID: "webapp"}, inp.MsgAppRep, &rep)
	if err == nil || !strings.Contains(err.Error(), "unexpected") {
		t.Fatalf("err = %v, want unexpected-opening-message", err)
	}
}

func TestServerIdleTimeout(t *testing.T) {
	p := newTestProxy(t)
	srv, err := NewServer(p, 4, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetIdleTimeout(150 * time.Millisecond)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() { _ = srv.Close(); <-done }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("idle connection kept open")
	} else if strings.Contains(err.Error(), "i/o timeout") {
		t.Fatal("server never dropped the idle connection")
	}
}

func TestAppMetaPushOverTCP(t *testing.T) {
	p, err := New(testModel(t), 64)
	if err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, p)
	defer shutdown()
	// No topology yet: negotiation fails.
	if _, err := runNegotiation(t, addr, desktopEnv()); err == nil {
		t.Fatal("negotiation succeeded without a topology")
	}
	// Push over the wire, then negotiate.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := inp.NewConn(conn)
	var ack inp.AppMetaAck
	if err := c.Call(inp.MsgAppMetaPush, inp.AppMetaPush{App: testApp()}, inp.MsgAppMetaAck, &ack); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if !ack.OK {
		t.Fatalf("push rejected: %s", ack.Reason)
	}
	pads, err := runNegotiation(t, addr, desktopEnv())
	if err != nil {
		t.Fatal(err)
	}
	if pads[0].ID != "pad-direct" {
		t.Fatalf("negotiated %s after push", pads[0].ID)
	}
	// An invalid push is NACKed.
	conn, err = net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c = inp.NewConn(conn)
	if err := c.Call(inp.MsgAppMetaPush, inp.AppMetaPush{App: core.AppMeta{AppID: "x"}}, inp.MsgAppMetaAck, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.OK {
		t.Fatal("invalid AppMeta acknowledged")
	}
}

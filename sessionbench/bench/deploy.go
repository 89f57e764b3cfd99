package bench

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"fractal/internal/appserver"
	"fractal/internal/cdn"
	"fractal/internal/experiment"
	"fractal/internal/proxy"
	corpus "fractal/internal/workload"
)

// maxConcurrent bounds each role's concurrent sessions. It is far above
// the two or three connections the closed-loop workers hold at once, so
// admission never queues.
const maxConcurrent = 64

// deployment is the three serving roles of experiment.NewSetup, each on
// its own loopback listener: the adaptation proxy, a PAD server over the
// CDN origin, and the application server.
type deployment struct {
	setup *experiment.Setup
	// versions holds every corpus version the run may install, v1 first;
	// NewSetup installs the first two.
	versions  []*corpus.Corpus
	installMu sync.Mutex
	installed int // guarded by installMu
	// pages[v-1][id] is the serialized page at version v, the reference
	// every decoded reply is compared with.
	pages []map[string][]byte
	// checkOffset is Options.CheckVersionOffset.
	checkOffset int

	proxyAddr, padAddr, appAddr string

	proxySrv *proxy.Server
	padSrv   *cdn.PADServer
	appSrv   *appserver.INPServer
	serving  sync.WaitGroup
	serveErr chan error

	serverErrors atomic.Int64
	firstErrMu   sync.Mutex
	firstErr     string
}

// newDeployment builds the platform with NewSetup, evolves extra corpus
// versions for later installation, and starts the three servers.
func newDeployment(cfg experiment.SetupConfig, extraVersions int, seed int64) (*deployment, error) {
	s, err := experiment.NewSetup(cfg)
	if err != nil {
		return nil, err
	}
	d := &deployment{setup: s, versions: []*corpus.Corpus{s.V1, s.V2}, serveErr: make(chan error, 3)}
	d.installed = 2
	for i := 0; i < extraVersions; i++ {
		next, err := corpus.MutateCorpus(d.versions[len(d.versions)-1], corpus.DefaultMutation(seed+int64(i)))
		if err != nil {
			return nil, fmt.Errorf("evolving corpus version %d: %w", len(d.versions)+1, err)
		}
		d.versions = append(d.versions, next)
	}
	for _, c := range d.versions {
		m := make(map[string][]byte, len(c.Pages))
		for _, p := range c.Pages {
			m[p.ID] = p.Bytes()
		}
		d.pages = append(d.pages, m)
	}
	if err := d.start(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// logf counts a session error a server logged; a clean run logs none.
func (d *deployment) logf(format string, args ...interface{}) {
	if d.serverErrors.Add(1) == 1 {
		d.firstErrMu.Lock()
		d.firstErr = fmt.Sprintf(format, args...)
		d.firstErrMu.Unlock()
	}
}

func (d *deployment) start() error {
	var err error
	if d.proxySrv, err = proxy.NewServer(d.setup.Proxy, maxConcurrent, d.logf); err != nil {
		return err
	}
	if d.padSrv, err = cdn.NewPADServer(d.setup.CDN.Origin(), maxConcurrent, d.logf); err != nil {
		return err
	}
	if d.appSrv, err = appserver.NewINPServer(d.setup.App, maxConcurrent, d.logf); err != nil {
		return err
	}
	for _, role := range []struct {
		addr  *string
		serve func(net.Listener) error
	}{
		{&d.proxyAddr, d.proxySrv.Serve},
		{&d.padAddr, d.padSrv.Serve},
		{&d.appAddr, d.appSrv.Serve},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("listening on loopback: %w", err)
		}
		*role.addr = ln.Addr().String()
		serve := role.serve
		d.serving.Add(1)
		go func() {
			defer d.serving.Done()
			if err := serve(ln); err != nil {
				d.serveErr <- err
			}
		}()
	}
	return nil
}

// canInstall reports whether a corpus version is left to install.
func (d *deployment) canInstall() bool {
	d.installMu.Lock()
	defer d.installMu.Unlock()
	return d.installed < len(d.versions)
}

// installNext installs the next pre-generated corpus version on the live
// application server. It reports false once every version is installed.
func (d *deployment) installNext() (bool, error) {
	d.installMu.Lock()
	defer d.installMu.Unlock()
	if d.installed >= len(d.versions) {
		return false, nil
	}
	if err := d.setup.App.InstallCorpus(d.versions[d.installed]); err != nil {
		return false, fmt.Errorf("installing corpus version %d: %w", d.installed+1, err)
	}
	d.installed++
	return true, nil
}

// checkReply is the output check: a decoded page must equal the page at
// the corpus version the client says it holds.
func (d *deployment) checkReply(page string, held int, data []byte) error {
	held += d.checkOffset
	if held < 1 || held > len(d.pages) {
		return fmt.Errorf("output check: %s held at version %d, corpus has versions 1..%d", page, held, len(d.pages))
	}
	want, ok := d.pages[held-1][page]
	if !ok {
		return fmt.Errorf("output check: no page %s in corpus version %d", page, held)
	}
	if !bytes.Equal(want, data) {
		return fmt.Errorf("output check: %s decoded to %d bytes that differ from version %d (%d bytes)", page, len(data), held, len(want))
	}
	return nil
}

// close stops the servers and waits for their accept loops, which in turn
// wait for every session they started. Callers close their own client
// connections first.
func (d *deployment) close() error {
	var errs []error
	if d.proxySrv != nil {
		errs = append(errs, d.proxySrv.Close())
	}
	if d.padSrv != nil {
		errs = append(errs, d.padSrv.Close())
	}
	if d.appSrv != nil {
		errs = append(errs, d.appSrv.Close())
	}
	d.serving.Wait()
	close(d.serveErr)
	for err := range d.serveErr {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

func (d *deployment) firstServerError() string {
	d.firstErrMu.Lock()
	defer d.firstErrMu.Unlock()
	return d.firstErr
}

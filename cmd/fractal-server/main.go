// Command fractal-server runs a Fractal application server: it generates
// (or evolves) the versioned content corpus, deploys and signs the four
// case-study PADs, publishes the packed modules plus the trust key to a
// directory for PAD servers (cmd/fractal-edge), pushes its AppMeta to the
// adaptation proxy, and serves application sessions over INP.
//
// Usage:
//
//	fractal-server -listen :7002 -proxy localhost:7001 -publish ./pads
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"fractal/internal/appserver"
	"fractal/internal/mobilecode"
	"fractal/internal/workload"
)

func main() {
	var (
		listen    = flag.String("listen", ":7002", "INP listen address")
		proxyAddr = flag.String("proxy", "", "adaptation proxy address to push AppMeta to (optional)")
		publish   = flag.String("publish", "", "directory to write packed PAD modules + trust key (optional)")
		appID     = flag.String("app", "webapp", "application id")
		pages     = flag.Int("pages", workload.DefaultPages, "corpus size")
		seed      = flag.Int64("seed", 2005, "workload seed")
		versions  = flag.Int("versions", 2, "content versions to install (>= 1)")
		samples   = flag.Int("samples", 8, "pages sampled when pre-measuring PAD overheads")
		maxConc   = flag.Int("max-concurrent", 256, "maximum simultaneous sessions")
		proactive = flag.Bool("proactive", false, "precompute adaptive content (Figure 10(d) strategy)")
	)
	flag.Parse()

	signer, err := mobilecode.NewSigner(*appID + "-operator")
	if err != nil {
		log.Fatalf("fractal-server: %v", err)
	}
	app, err := appserver.New(*appID, signer)
	if err != nil {
		log.Fatalf("fractal-server: %v", err)
	}

	if *versions < 1 {
		log.Fatalf("fractal-server: need >= 1 content version")
	}
	cfg := workload.DefaultConfig(*seed)
	cfg.Pages = *pages
	corpus, err := workload.Generate(cfg)
	if err != nil {
		log.Fatalf("fractal-server: %v", err)
	}
	chain := []*workload.Corpus{corpus}
	for v := 1; v < *versions; v++ {
		next, err := workload.MutateCorpus(chain[len(chain)-1], workload.DefaultMutation(*seed+int64(v)))
		if err != nil {
			log.Fatalf("fractal-server: %v", err)
		}
		chain = append(chain, next)
	}
	if err := app.InstallCorpus(chain...); err != nil {
		log.Fatalf("fractal-server: %v", err)
	}
	if err := app.DeployPADs("1.0"); err != nil {
		log.Fatalf("fractal-server: %v", err)
	}
	if *proactive {
		log.Printf("fractal-server: precomputing adaptive content...")
		if err := app.SetStrategy(appserver.Proactive); err != nil {
			log.Fatalf("fractal-server: %v", err)
		}
	}
	appMeta, err := app.MeasureAppMeta(*samples)
	if err != nil {
		log.Fatalf("fractal-server: %v", err)
	}
	log.Printf("fractal-server: %d resources, %d PADs measured", app.Resources(), len(appMeta.PADs))

	if *publish != "" {
		if err := publishModules(app, *publish); err != nil {
			log.Fatalf("fractal-server: %v", err)
		}
		log.Printf("fractal-server: published PAD modules + trust key to %s", *publish)
	}
	if *proxyAddr != "" {
		if err := appserver.PushAppMetaTCP(*proxyAddr, appMeta); err != nil {
			log.Fatalf("fractal-server: %v", err)
		}
		log.Printf("fractal-server: pushed AppMeta to proxy %s", *proxyAddr)
	}

	srv, err := appserver.NewINPServer(app, *maxConc, log.Printf)
	if err != nil {
		log.Fatalf("fractal-server: %v", err)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("fractal-server: listen %s: %v", *listen, err)
	}
	log.Printf("fractal-server: application server %q listening on %s (%s strategy)",
		*appID, ln.Addr(), app.Strategy())

	go func() {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
		sig := <-ch
		st := app.Stats()
		log.Printf("fractal-server: received %v (requests %d, reactive %d, precomputed %d, memoized %d)",
			sig, st.Requests, st.ReactiveEncod, st.PrecomputeHits, st.MemoHits)
		_ = srv.Close()
	}()
	if err := srv.Serve(ln); err != nil {
		log.Fatalf("fractal-server: %v", err)
	}
}

// publishModules writes each PAD as <dir>/<id>.fmc plus <dir>/trust.key
// ("<entity>\n<hex pubkey>\n") for client trust bootstrap.
func publishModules(app *appserver.Server, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Reuse the CDN publishing path by packing via a throwaway origin.
	mods, err := packAll(app)
	if err != nil {
		return err
	}
	for id, packed := range mods {
		if err := os.WriteFile(filepath.Join(dir, id+".fmc"), packed, 0o644); err != nil {
			return err
		}
	}
	entity, key := app.TrustedKey()
	trust := fmt.Sprintf("%s\n%s\n", entity, hex.EncodeToString(key))
	return os.WriteFile(filepath.Join(dir, "trust.key"), []byte(trust), 0o644)
}

// packAll extracts packed modules through the CDN origin publishing path.
func packAll(app *appserver.Server) (map[string][]byte, error) {
	origin, err := newMemOrigin()
	if err != nil {
		return nil, err
	}
	if err := app.PublishPADs(origin); err != nil {
		return nil, err
	}
	out := map[string][]byte{}
	for _, path := range origin.Paths() {
		data, err := origin.Get(path)
		if err != nil {
			return nil, err
		}
		out[filepath.Base(path)] = data
	}
	return out, nil
}

package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fractal/internal/core"
	"fractal/internal/inp"
	"fractal/internal/proxy"
)

// negotiateApp is the case-study web application used by the throughput
// driver: one-level PAT with the four communication protocols.
func negotiateApp() core.AppMeta {
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

func negotiateEnv(variant int) core.Env {
	return core.Env{
		Dev:  core.DevMeta{OSType: core.OSFedora, CPUType: core.CPUTypeP4, CPUMHz: float64(1000 + variant), MemMB: 512},
		Ntwk: core.NtwkMeta{NetworkType: core.NetLAN, BandwidthKbps: 100000},
	}
}

// runNegotiate drives the negotiation plane through three phases: warm
// (cache hits over a bounded key set), cold (every negotiation a distinct
// key), and loopback (full Figure 4 sessions over TCP).
func runNegotiate(workers, ops int) (section, error) {
	sec := section{Title: "Negotiation-plane throughput (compiled search, singleflight, sharded cache)"}
	if workers < 1 || ops < 1 {
		return sec, fmt.Errorf("negotiate mode needs workers >= 1 and ops >= 1, got %d/%d", workers, ops)
	}
	ms, err := core.CaseStudyMatrices()
	if err != nil {
		return sec, err
	}
	model := core.OverheadModel{
		Matrices: ms, Rho: 0.8, ServerCPUMHz: 2000,
		IncludeServerComp: true, SessionRequests: 75,
	}
	p, err := proxy.New(model, 4096)
	if err != nil {
		return sec, err
	}
	if err := p.PushAppMeta(negotiateApp()); err != nil {
		return sec, err
	}

	sec.Rows = append(sec.Rows, "phase\tworkers\tops\tseconds\tops_per_sec")
	const warmKeys = 512

	runPhase := func(name string, phaseOps int, fn func(worker, i int) error) error {
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < phaseOps; i++ {
					if err := fn(w, i); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		close(errs)
		for err := range errs {
			return err
		}
		total := workers * phaseOps
		sec.Rows = append(sec.Rows, fmt.Sprintf("%s\t%d\t%d\t%.3f\t%.0f",
			name, workers, total, elapsed, float64(total)/elapsed))
		return nil
	}

	if err := runPhase("warm", ops, func(w, i int) error {
		_, err := p.Negotiate("webapp", negotiateEnv(i%warmKeys), 75)
		return err
	}); err != nil {
		return sec, err
	}

	var cold atomic.Int64
	if err := runPhase("cold", ops, func(w, i int) error {
		_, err := p.Negotiate("webapp", negotiateEnv(warmKeys+int(cold.Add(1))), 75)
		return err
	}); err != nil {
		return sec, err
	}

	srv, err := proxy.NewServer(p, workers*2, func(string, ...interface{}) {})
	if err != nil {
		return sec, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return sec, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	addr := ln.Addr().String()
	loopbackOps := ops / 10
	if loopbackOps < 1 {
		loopbackOps = 1
	}
	if err := runPhase("loopback", loopbackOps, func(w, i int) error {
		return negotiateSession(addr, negotiateEnv(i%warmKeys))
	}); err != nil {
		return sec, err
	}
	if err := srv.Close(); err != nil {
		return sec, err
	}
	if err := <-serveDone; err != nil {
		return sec, err
	}

	st := p.Stats()
	sec.Rows = append(sec.Rows, "counter\tvalue")
	sec.Rows = append(sec.Rows, fmt.Sprintf("negotiations\t%d", st.Negotiations))
	sec.Rows = append(sec.Rows, fmt.Sprintf("cache_hits\t%d", st.CacheHits))
	sec.Rows = append(sec.Rows, fmt.Sprintf("searches\t%d", st.Searches))
	sec.Rows = append(sec.Rows, fmt.Sprintf("collapsed_searches\t%d", st.CollapsedSearches))
	sec.Rows = append(sec.Rows, fmt.Sprintf("search_nanos_total\t%d", st.TotalSearchNanos))
	sec.Rows = append(sec.Rows, fmt.Sprintf("verifier_rejections\t%d", st.VerifierRejections))
	cs := p.CacheStats()
	sec.Rows = append(sec.Rows, fmt.Sprintf("adaptation_cache\thits=%d misses=%d evictions=%d", cs.Hits, cs.Misses, cs.Evictions))
	return sec, nil
}

// negotiateSession runs one client-side Figure 4 exchange, pipelined: the
// INIT_REQ and the CLI_META_REP are
// queued and flushed as one vectored write, so the whole session costs one
// write and one read burst in the steady state.
func negotiateSession(addr string, env core.Env) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	c := inp.NewConn(conn)
	if err := c.Queue(inp.MsgInitReq, inp.InitReq{AppID: "webapp", Resource: "page-000"}); err != nil {
		return err
	}
	if err := c.Queue(inp.MsgCliMetaRep, inp.CliMetaRep{Dev: env.Dev, Ntwk: env.Ntwk, SessionRequests: 75}); err != nil {
		return err
	}
	if err := c.Flush(); err != nil {
		return err
	}
	var initRep inp.InitRep
	if err := c.RecvInto(inp.MsgInitRep, &initRep); err != nil {
		return err
	}
	if !initRep.OK {
		return fmt.Errorf("INIT refused: %s", initRep.Reason)
	}
	var tmpl inp.CliMetaReq
	if err := c.RecvInto(inp.MsgCliMetaReq, &tmpl); err != nil {
		return err
	}
	var padRep inp.PADMetaRep
	return c.RecvInto(inp.MsgPADMetaRep, &padRep)
}

package appserver

import (
	"bytes"
	"crypto/sha1"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"fractal/internal/client"
	"fractal/internal/codec"
	"fractal/internal/core"
	"fractal/internal/mobilecode"
	"fractal/internal/transcode"
	"fractal/internal/workload"
)

// installV3 appends a third content version to testServer's corpus.
func installV3(t *testing.T, s *Server) *workload.Corpus {
	t.Helper()
	_, v2 := testCorpora(t, 4)
	v3, err := workload.MutateCorpus(v2, workload.DefaultMutation(102))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InstallCorpus(v3); err != nil {
		t.Fatal(err)
	}
	return v3
}

func TestMemoPayloadMatchesFreshEncode(t *testing.T) {
	for _, proto := range []string{codec.NameDirect, codec.NameGzip} {
		t.Run(proto, func(t *testing.T) {
			s := testServer(t)
			fresh, err := codec.New(proto)
			if err != nil {
				t.Fatal(err)
			}
			padID := "pad-" + proto
			for i := 0; i < 4; i++ {
				res := fmt.Sprintf("page-%03d", i)
				cur, curV, err := s.Current(res)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Encode(nil, cur)
				if err != nil {
					t.Fatal(err)
				}
				// Every held version gets the same bytes: the first
				// request encodes, the rest are memo hits.
				for have := 0; have <= curV; have++ {
					r, err := s.Encode([]string{padID}, res, have)
					if err != nil {
						t.Fatal(err)
					}
					if r.Version != curV || !bytes.Equal(r.Payload, want) {
						t.Fatalf("%s have=%d: memoized payload (v%d, %d B) differs from a fresh encode (v%d, %d B)",
							res, have, r.Version, len(r.Payload), curV, len(want))
					}
					if r.ContentBytes != int64(len(cur)) {
						t.Fatalf("%s have=%d: ContentBytes = %d, want %d", res, have, r.ContentBytes, len(cur))
					}
				}
			}
			st := s.Stats()
			if st.ReactiveEncod != 4 || st.MemoHits != 8 || !st.Accounted() {
				t.Fatalf("stats %+v: want 4 encodes (one per page) and 8 memo hits", st)
			}
		})
	}
}

func TestMemoNeverServesStaleVersion(t *testing.T) {
	s := testServer(t)
	gz, err := codec.New(codec.NameGzip)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Encode([]string{"pad-gzip"}, "page-000", 0); err != nil {
		t.Fatal(err)
	}
	v3 := installV3(t, s)
	for _, have := range []int{0, 2} {
		r, err := s.Encode([]string{"pad-gzip"}, "page-000", have)
		if err != nil {
			t.Fatal(err)
		}
		got, err := gz.Decode(nil, r.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if r.Version != 3 || !bytes.Equal(got, v3.Pages[0].Bytes()) {
			t.Fatalf("have=%d after InstallCorpus: reply v%d decodes to %d B, want v3's %d B", have, r.Version, len(got), len(v3.Pages[0].Bytes()))
		}
	}
	if st := s.Stats(); st.ReactiveEncod != 2 || st.MemoHits != 1 {
		t.Fatalf("stats %+v: want one encode per version and one memo hit", st)
	}

	// An encode of v2 that finishes after v3's entry is stored (a request
	// that read the chain before the install) must not displace it.
	key := encKey{module: "pad-gzip", resource: "page-000"}
	v2cur := s.resources["page-000"][1]
	if _, err := s.memoized(key, s.pads["pad-gzip"].impl, v2cur, 2); err != nil {
		t.Fatal(err)
	}
	if e, ok := s.memoLookup(key, 3); !ok || e.version != 3 {
		t.Fatal("a late v2 encode replaced the v3 memo entry")
	}
}

func TestMemoKeepsTranscodedEntriesApart(t *testing.T) {
	thumb, err := transcode.New(transcode.NameThumbnail)
	if err != nil {
		t.Fatal(err)
	}
	plainPath := []string{"pad-gzip"}
	thumbPath := []string{"pad-thumb", "pad-gzip@thumbnail"}
	for _, order := range [][][]string{{plainPath, thumbPath}, {thumbPath, plainPath}} {
		s := caServer(t)
		cur, _, err := s.Current("page-001")
		if err != nil {
			t.Fatal(err)
		}
		small, err := thumb.Transform(cur)
		if err != nil {
			t.Fatal(err)
		}
		gz, err := codec.New(codec.NameGzip)
		if err != nil {
			t.Fatal(err)
		}
		// Each path twice, so the second request of each is a memo hit.
		for _, path := range append(order, order...) {
			r, err := s.Encode(path, "page-001", 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := gz.Decode(nil, r.Payload)
			if err != nil {
				t.Fatal(err)
			}
			want := cur
			if len(path) == 2 {
				want = small
			}
			if !bytes.Equal(got, want) || r.ContentBytes != int64(len(want)) {
				t.Fatalf("path %v after %v: payload decodes to %d B (content %d), want %d B", path, order, len(got), r.ContentBytes, len(want))
			}
		}
		if st := s.Stats(); st.ReactiveEncod != 2 || st.MemoHits != 2 {
			t.Fatalf("stats %+v: want one encode and one memo hit per rendition", st)
		}
	}
}

// countingGzip counts encodes and holds the first one until the test has
// issued every request.
type countingGzip struct {
	*codec.Gzip
	encodes atomic.Int64
	release chan struct{}
}

func (c *countingGzip) Encode(old, cur []byte) ([]byte, error) {
	c.encodes.Add(1)
	<-c.release
	return c.Gzip.Encode(old, cur)
}

func TestMemoColdStampedeEncodesOnce(t *testing.T) {
	s := testServer(t)
	cg := &countingGzip{Gzip: codec.NewGzip(), release: make(chan struct{})}
	s.pads["pad-gzip"].impl = cg
	const n = 32
	payloads := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.Encode([]string{"pad-gzip"}, "page-002", i%3)
			if err != nil {
				t.Error(err)
				return
			}
			payloads[i] = r.Payload
		}(i)
	}
	// Every request has been counted before the encode may finish.
	for s.Stats().Requests < n {
		runtime.Gosched()
	}
	close(cg.release)
	wg.Wait()
	if got := cg.encodes.Load(); got != 1 {
		t.Fatalf("%d concurrent cold requests ran %d gzip encodes, want 1", n, got)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(payloads[i], payloads[0]) {
			t.Fatalf("request %d got a different payload", i)
		}
	}
	if st := s.Stats(); st.ReactiveEncod != 1 || st.MemoHits != n-1 || !st.Accounted() {
		t.Fatalf("stats %+v: want 1 encode and %d memo hits", st, n-1)
	}
}

// fixedNegotiator hands every client one PAD.
type fixedNegotiator core.PADMeta

func (f fixedNegotiator) Negotiate(string, core.Env, int) ([]core.PADMeta, error) {
	return []core.PADMeta{core.PADMeta(f)}, nil
}

// modulePADs serves packed modules straight from the server.
type modulePADs struct{ s *Server }

func (m modulePADs) FetchPAD(meta core.PADMeta) ([]byte, error) {
	return m.s.pads[meta.ID].module.Pack()
}

// TestPayloadsLeaveContentUntouched pins the read-only payload contract:
// Direct replies alias the installed content and gzip replies are shared
// memo entries, so a session sweep through the in-process client must not
// change a byte of any installed version.
func TestPayloadsLeaveContentUntouched(t *testing.T) {
	s := testServer(t)
	meta, err := s.MeasureAppMeta(4)
	if err != nil {
		t.Fatal(err)
	}
	trust := mobilecode.NewTrustList()
	if err := trust.Add(s.TrustedKey()); err != nil {
		t.Fatal(err)
	}
	sums := func() map[string][sha1.Size]byte {
		out := map[string][sha1.Size]byte{}
		s.mu.RLock()
		defer s.mu.RUnlock()
		for res, chain := range s.resources {
			for v, b := range chain {
				out[fmt.Sprintf("%s@%d", res, v+1)] = sha1.Sum(b)
			}
		}
		return out
	}
	before := sums()
	content := client.LocalAppServer{Encode: func(ids []string, res string, have int) ([]byte, int, string, error) {
		r, err := s.Encode(ids, res, have)
		return r.Payload, r.Version, r.PADID, err
	}}
	var clients []*client.Client
	for _, p := range meta.PADs {
		if p.Protocol != codec.NameDirect && p.Protocol != codec.NameGzip {
			continue
		}
		c, err := client.New(client.Config{
			Env: core.Env{
				Dev:  core.DevMeta{OSType: "linux", CPUType: "x86", CPUMHz: 1000, MemMB: 256},
				Ntwk: core.NtwkMeta{NetworkType: "wlan", BandwidthKbps: 2000},
			},
			SessionRequests: 4,
			Trust:           trust,
			Sandbox:         mobilecode.DefaultSandbox(),
		}, fixedNegotiator(p), modulePADs{s}, content)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	if len(clients) != 2 {
		t.Fatalf("built %d clients, want one direct and one gzip", len(clients))
	}
	sweep := func() {
		for _, c := range clients {
			for i := 0; i < 4; i++ {
				res := fmt.Sprintf("page-%03d", i)
				for k := 0; k < 2; k++ {
					got, err := c.Request("webapp", res)
					if err != nil {
						t.Fatal(err)
					}
					cur, _, err := s.Current(res)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, cur) {
						t.Fatalf("%s: client decoded %d B, want the current %d B", res, len(got), len(cur))
					}
				}
			}
		}
	}
	sweep()
	installV3(t, s)
	before = mergeSums(before, sums())
	sweep()
	after := sums()
	if len(after) != len(before) {
		t.Fatalf("%d installed versions, want %d", len(after), len(before))
	}
	for v, sum := range before {
		if after[v] != sum {
			t.Fatalf("%s changed while being served", v)
		}
	}
	if st := s.Stats(); st.MemoHits == 0 || !st.Accounted() {
		t.Fatalf("stats %+v: the sweep should hit the memo", st)
	}
}

// mergeSums adds the versions b names that a lacks.
func mergeSums(a, b map[string][sha1.Size]byte) map[string][sha1.Size]byte {
	for k, v := range b {
		if _, ok := a[k]; !ok {
			a[k] = v
		}
	}
	return a
}

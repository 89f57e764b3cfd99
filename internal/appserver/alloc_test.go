//go:build !race

package appserver

import "testing"

// TestEncodeMemoHitAllocs pins the warm path of a version-independent
// protocol: a memo hit resolves the path, reads the current version and
// returns the stored payload without encoding, transcoding or allocating.
func TestEncodeMemoHitAllocs(t *testing.T) {
	s := testServer(t)
	path := []string{"pad-gzip"}
	if _, err := s.Encode(path, "page-001", 1); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := s.Encode(path, "page-001", 1); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm gzip Encode allocates %.1f/op, want 0", avg)
	}
	if st := s.Stats(); st.ReactiveEncod != 1 || !st.Accounted() {
		t.Fatalf("stats %+v: want one encode, the rest memo hits", st)
	}
}

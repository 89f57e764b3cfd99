package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"fractal/internal/experiment"
)

// TestFiguresGolden pins the standing bar that the simulated figures stay
// byte-identical: every experiment of -exp all is rendered and compared
// with the committed figures_output.txt. Figure 9(a) is the one real-TCP
// measurement, so its section is left out on both sides.
func TestFiguresGolden(t *testing.T) {
	golden, err := os.ReadFile("../../figures_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiment.DefaultSetupConfig()
	s, err := experiment.NewSetup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := parseCounts(defaultClients)
	if err != nil {
		t.Fatal(err)
	}
	run := experiments(s, cfg, counts)
	var got bytes.Buffer
	for _, id := range experimentOrder {
		if id == "fig9a" {
			continue
		}
		sec, err := run[id]()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		sec.write(&got)
	}
	want := withoutSection(string(golden), "\n== Figure 9(a)")
	if want == string(golden) {
		t.Fatal("figures_output.txt has no Figure 9(a) section to leave out")
	}
	if got.String() != want {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("simulated figures diverge from figures_output.txt at line %d (Figure 9(a) left out):\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("simulated figures have %d lines, figures_output.txt %d (Figure 9(a) left out)", len(gl), len(wl))
	}
}

// withoutSection drops the section whose header starts with prefix, up to
// the next section header.
func withoutSection(out, prefix string) string {
	start := strings.Index(out, prefix)
	if start < 0 {
		return out
	}
	end := strings.Index(out[start+1:], "\n== ")
	if end < 0 {
		return out[:start]
	}
	return out[:start] + out[start+1+end:]
}

func TestParseCounts(t *testing.T) {
	got, err := parseCounts("1, 25,300")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 25 || got[2] != 300 {
		t.Fatalf("parseCounts = %v", got)
	}
	for _, bad := range []string{"", "0", "-3", "a", "1,,x"} {
		if _, err := parseCounts(bad); err == nil {
			t.Errorf("parseCounts(%q) accepted", bad)
		}
	}
	// Trailing commas and spaces are tolerated.
	got, err = parseCounts(" 5 , ")
	if err != nil || len(got) != 1 || got[0] != 5 {
		t.Fatalf("parseCounts lenient = %v, %v", got, err)
	}
}

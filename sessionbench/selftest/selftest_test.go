// Package selftest checks the session benchmark itself at a tiny scale:
// every metric BENCHMARK.json names is emitted with its unit on every
// workload, and a wrong expected corpus version trips the output check.
//
//	cd sessionbench && go test ./selftest
package selftest

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fractal/sessionbench/bench"
)

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readJSON(t *testing.T, path string, v interface{}) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// tiny is a run small enough for a unit test. A traced run measures
// longer: its half-traced window must hold enough application fetches for
// their replayed server time to sit within the run's replay tolerance of
// the live spans, which single encodes miss by up to a quarter.
func tiny(workload string, trace bool) bench.Options {
	measure := 600 * time.Millisecond
	if trace {
		measure = 2 * time.Second
	}
	o := bench.DefaultOptions(workload, 7, measure, trace)
	o.Pages = 8
	o.Setups = 1
	return o
}

func TestEveryMetricIsEmittedWithItsUnit(t *testing.T) {
	var spec benchmarkFile
	readJSON(t, filepath.Join("..", "..", "BENCHMARK.json"), &spec)
	var layers map[string]struct {
		Moves string `json:"moves"`
		On    string `json:"on"`
	}
	readJSON(t, filepath.Join("..", "layers.json"), &layers)
	for _, m := range spec.PerLayer {
		if l, ok := layers[m.Name]; !ok || l.Moves == "" || l.On == "" {
			t.Errorf("layers.json does not say which end-to-end metric %s moves on which workload", m.Name)
		}
	}
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json lists no workloads")
	}
	known := map[string]bool{}
	for _, w := range bench.Workloads {
		known[w] = true
	}
	for _, w := range spec.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
	// Every workload the benchmark runs, including any BENCHMARK.json leaves
	// out, emits the full metric set.
	for _, name := range bench.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			rep, err := bench.Run(tiny(name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v", name, trace,
					rep.Result.Correct, rep.Result.Attempted, rep.Result.Failed, rep.Problems)
			}
			for _, m := range want {
				got, ok := rep.Result.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not emitted", name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(rep.Result.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", name, trace, len(rep.Result.Metrics), len(want))
			}
		}
	}
}

func TestWrongExpectedVersionTripsOutputCheck(t *testing.T) {
	for _, w := range []string{bench.FirstContact, bench.AppSession} {
		o := tiny(w, false)
		o.CheckVersionOffset = 1
		rep, err := bench.Run(o)
		if err != nil {
			if !strings.Contains(err.Error(), "output check") {
				t.Errorf("%s: run failed for another reason than the output check: %v", w, err)
			}
			continue
		}
		if rep.Result.Correct {
			t.Errorf("%s: a wrong expected version passed the output check", w)
		}
	}
}

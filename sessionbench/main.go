// Command sessionbench runs one end-to-end Fractal session benchmark run
// and prints its provenance and result as JSON lines on standard output;
// the result is the last line.
//
//	go run . --workload first-contact --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"fractal/sessionbench/bench"
)

func main() {
	workload := flag.String("workload", "", "workload: first-contact or app-session")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run, 0 the untraced end-to-end run")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "sessionbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	opts := bench.DefaultOptions(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	rep, err := bench.Run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sessionbench:", err)
		os.Exit(2)
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(os.Stderr, "sessionbench: check failed:", p)
	}
	rep.Provenance["problems"] = append([]string{}, rep.Problems...)
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]interface{}{"provenance": rep.Provenance}); err != nil {
		os.Exit(2)
	}
	if err := enc.Encode(rep.Result); err != nil {
		os.Exit(2)
	}
	if !rep.Result.Correct {
		os.Exit(1)
	}
}

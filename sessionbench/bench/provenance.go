package bench

import (
	"os"
	"runtime"
)

// provenance describes the host and the build a result was measured on.
// run.sh passes the commit (when the checkout is a git work tree) and a
// digest of the Go sources it built, which identifies the code either way.
func provenance(o Options) map[string]interface{} {
	commit := os.Getenv("SESSIONBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]interface{}{
		"workload":       o.Workload,
		"seed":           o.Seed,
		"measure_s":      o.Measure.Seconds(),
		"trace":          o.Trace,
		"pages":          o.Pages,
		"goos":           runtime.GOOS,
		"goarch":         runtime.GOARCH,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"commit":         commit,
		"source_sha256":  os.Getenv("SESSIONBENCH_SOURCE"),
		"network":        "loopback",
		"trace_slice_s":  traceSlice.Seconds(),
		"reconcile_tol":  reconcileTolerance,
		"replay_tol":     replayTolerance,
		"p99_chunk_size": p99Chunk,
	}
}

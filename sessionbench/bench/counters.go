package bench

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procIO holds the write-byte and read/write-syscall counters of
// /proc/self/io. Every serving role runs
// in this process, so on loopback the write counters cover the bytes and
// write syscalls of all roles together.
type procIO struct {
	wchar, syscr, syscw int64
}

func readProcIO() (procIO, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return procIO{}, fmt.Errorf("reading process I/O counters: %w", err)
	}
	defer f.Close()
	var io procIO
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			continue
		}
		switch name {
		case "wchar":
			io.wchar = n
		case "syscr":
			io.syscr = n
		case "syscw":
			io.syscw = n
		}
	}
	return io, sc.Err()
}

// timeWaitSockets reads the kernel-wide TCP TIME_WAIT count from
// /proc/net/sockstat; dial-per-op workloads fill this table, so every
// result records it before and after the run. It returns -1 when the file
// is unavailable.
func timeWaitSockets() int64 {
	data, err := os.ReadFile("/proc/net/sockstat")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "TCP:" {
			continue
		}
		for i := 1; i+1 < len(f); i += 2 {
			if f[i] == "tw" {
				n, err := strconv.ParseInt(f[i+1], 10, 64)
				if err != nil {
					return -1
				}
				return n
			}
		}
	}
	return -1
}

// hostCPU reads the aggregate line of /proc/stat: total and stolen ticks.
// Steal is time the hypervisor ran another guest on this host's CPUs; it
// is recorded with every result because it moves every latency.
func hostCPU() (total, steal int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// snapshot is every process-wide counter a window is measured with.
type snapshot struct {
	at                   time.Time
	io                   procIO
	cpu                  time.Duration // user + system
	allocs               uint64
	gcCPU                float64
	totalCPU             float64
	sched                *metrics.Float64Histogram
	hostTicks, hostSteal int64
}

var metricNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func takeSnapshot() (snapshot, error) {
	io, err := readProcIO()
	if err != nil {
		return snapshot{}, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return snapshot{}, fmt.Errorf("getrusage: %w", err)
	}
	samples := make([]metrics.Sample, len(metricNames))
	for i, n := range metricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	s := snapshot{
		at:  time.Now(),
		io:  io,
		cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
	s.hostTicks, s.hostSteal = hostCPU()
	for _, m := range samples {
		switch m.Value.Kind() {
		case metrics.KindUint64:
			s.allocs = m.Value.Uint64()
		case metrics.KindFloat64:
			if m.Name == metricNames[1] {
				s.gcCPU = m.Value.Float64()
			} else {
				s.totalCPU = m.Value.Float64()
			}
		case metrics.KindFloat64Histogram:
			s.sched = m.Value.Float64Histogram()
		default:
			return snapshot{}, fmt.Errorf("runtime metric %s is unsupported by this Go runtime", m.Name)
		}
	}
	return s, nil
}

// delta is the counter change over a measured window.
type delta struct {
	wall           time.Duration
	io             procIO
	cpu            time.Duration
	allocs         uint64
	gcCPU, totCPU  float64
	schedWaitP99us float64
	hostStealPct   float64
}

func diff(a, b snapshot) delta {
	return delta{
		wall: b.at.Sub(a.at),
		io: procIO{
			wchar: b.io.wchar - a.io.wchar, syscr: b.io.syscr - a.io.syscr, syscw: b.io.syscw - a.io.syscw,
		},
		cpu:            b.cpu - a.cpu,
		allocs:         b.allocs - a.allocs,
		gcCPU:          b.gcCPU - a.gcCPU,
		totCPU:         b.totalCPU - a.totalCPU,
		schedWaitP99us: histDeltaQuantile(a.sched, b.sched, 0.99) * 1e6,
		hostStealPct:   100 * ratio(float64(b.hostSteal-a.hostSteal), float64(b.hostTicks-a.hostTicks)),
	}
}

// histDeltaQuantile is the q-quantile of the samples histogram b gained
// over a, taking each bucket's upper bound (its lower bound for the
// unbounded last bucket).
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= rank {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				return b.Buckets[i]
			}
			return hi
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// quantile is the nearest-rank q-quantile of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

package netsim

import (
	"math/bits"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// logNBound is the per-operation move envelope of a 4-ary heap holding at
// most n elements: ceil(log4 n) levels plus slack for the root/leaf edges.
func logNBound(n int) uint64 {
	if n < 2 {
		return 2
	}
	levels := (bits.Len(uint(n-1)) + 1) / 2 // ceil(log4 n)
	return uint64(levels + 2)
}

func TestEventQueueOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 5000
	type ev struct {
		at   time.Duration
		push int
		id   int32
	}
	evs := make([]ev, n)
	q := NewEventQueue(n)
	for i := range evs {
		// Coarse times force plenty of exact ties to exercise the seq
		// tie-break.
		at := time.Duration(rng.Intn(200)) * time.Millisecond
		evs[i] = ev{at: at, push: i, id: int32(i)}
		q.Push(at, int32(i))
	}
	want := append([]ev(nil), evs...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	for i := 0; i < n; i++ {
		at, id, ok := q.Pop()
		if !ok {
			t.Fatalf("queue empty after %d pops, want %d", i, n)
		}
		if at != want[i].at || id != want[i].id {
			t.Fatalf("pop %d = (%v, %d), want (%v, %d)", i, at, id, want[i].at, want[i].id)
		}
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("pop succeeded on an empty queue")
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after draining", q.Len())
	}
}

func TestEventQueuePeek(t *testing.T) {
	q := NewEventQueue(4)
	if _, _, ok := q.Peek(); ok {
		t.Fatal("Peek succeeded on an empty queue")
	}
	q.Push(3*time.Second, 3)
	q.Push(1*time.Second, 1)
	if at, id, ok := q.Peek(); !ok || at != time.Second || id != 1 {
		t.Fatalf("Peek = (%v, %d, %v), want (1s, 1, true)", at, id, ok)
	}
	if q.Len() != 2 {
		t.Fatalf("Peek consumed an event: Len = %d", q.Len())
	}
}

// TestEventQueueMillionLogN is the fleet-scale regression test: a million
// scheduled events must cost O(log n) moves per operation, counted
// deterministically by the queue's own move tally rather than timed. The
// workload interleaves a bulk load with a running push/pop window, the
// shape of the load harness's arrival-plus-completion timeline.
func TestEventQueueMillionLogN(t *testing.T) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(7))
	q := NewEventQueue(n)
	ops := uint64(0)
	for i := 0; i < n; i++ {
		q.Push(time.Duration(rng.Int63n(int64(time.Hour))), int32(i))
		ops++
	}
	// Running window: each pop schedules a follow-up, as a session
	// completion schedules the next waiter.
	for i := 0; i < n/4; i++ {
		at, id, ok := q.Pop()
		if !ok {
			t.Fatal("queue drained early")
		}
		ops++
		q.Push(at+time.Duration(rng.Int63n(int64(time.Minute))), id)
		ops++
	}
	prev := time.Duration(-1)
	for {
		at, _, ok := q.Pop()
		if !ok {
			break
		}
		ops++
		if at < prev {
			t.Fatalf("pop went backwards: %v after %v", at, prev)
		}
		prev = at
	}
	bound := ops * logNBound(n+1)
	if q.moves > bound {
		t.Fatalf("%d ops did %d element moves, above the O(log n) envelope %d", ops, q.moves, bound)
	}
	t.Logf("%d ops, %d moves (%.2f moves/op, envelope %d/op)", ops, q.moves, float64(q.moves)/float64(ops), logNBound(n+1))
}

// TestEventQueueSteadyStateAllocs pins the zero-allocation contract of the
// running timeline: once capacity is reached, push/pop cycles touch no
// allocator.
func TestEventQueueSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocs-per-run is meaningless")
	}
	q := NewEventQueue(1024)
	for i := 0; i < 1024; i++ {
		q.Push(time.Duration(i)*time.Millisecond, int32(i))
	}
	avg := testing.AllocsPerRun(200, func() {
		at, id, _ := q.Pop()
		q.Push(at+time.Second, id)
	})
	if avg != 0 {
		t.Fatalf("steady-state push/pop allocates %.1f times per cycle, want 0", avg)
	}
}

// TestVirtualClockHeapDiscipline verifies the clock's inlined heap keeps
// the same stable (timestamp, schedule-order) execution order as the old
// container/heap implementation, and stays within the O(log n) move
// envelope under a large schedule.
func TestVirtualClockHeapDiscipline(t *testing.T) {
	const n = 100000
	run := func(seed int64) ([]int, uint64) {
		rng := rand.New(rand.NewSource(seed))
		c := NewVirtualClock()
		order := make([]int, 0, n)
		for i := 0; i < n; i++ {
			i := i
			c.Schedule(time.Duration(rng.Intn(1000))*time.Millisecond, func() {
				order = append(order, i)
			})
		}
		c.Run()
		return order, c.moves
	}
	a, movesA := run(11)
	b, _ := run(11)
	if len(a) != n || len(b) != n {
		t.Fatalf("executed %d/%d events, want %d", len(a), len(b), n)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event order diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	bound := uint64(2*n) * logNBound(n)
	if movesA > bound {
		t.Fatalf("%d schedule+run ops did %d moves, above envelope %d", 2*n, movesA, bound)
	}
}

func BenchmarkEventQueueMillion(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(3))
	ats := make([]time.Duration, n)
	for i := range ats {
		ats[i] = time.Duration(rng.Int63n(int64(time.Hour)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		q := NewEventQueue(n)
		for i := 0; i < n; i++ {
			q.Push(ats[i], int32(i))
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
	b.ReportMetric(float64(2*n), "events/op")
}

func BenchmarkEventQueueSteadyState(b *testing.B) {
	const n = 1 << 16
	q := NewEventQueue(n)
	for i := 0; i < n; i++ {
		q.Push(time.Duration(i)*time.Microsecond, int32(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		at, id, _ := q.Pop()
		q.Push(at+time.Millisecond, id)
	}
}

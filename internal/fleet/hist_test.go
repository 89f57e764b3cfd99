package fleet

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refQuantile is the sort-based reference: the rank-ceil(q*n) smallest
// sample, matching Hist.Quantile's rank definition.
func refQuantile(sorted []int64, q float64) int64 {
	n := len(sorted)
	rank := int64(q * float64(n))
	if float64(rank) < q*float64(n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > int64(n) {
		rank = int64(n)
	}
	return sorted[rank-1]
}

func histDistributions() map[string][]int64 {
	out := map[string][]int64{}

	rng := rand.New(rand.NewSource(41))
	uniform := make([]int64, 20000)
	for i := range uniform {
		uniform[i] = rng.Int63n(5_000_000) // up to 5ms in ns
	}
	out["uniform"] = uniform

	rng = rand.New(rand.NewSource(42))
	exp := make([]int64, 20000)
	for i := range exp {
		exp[i] = int64(rng.ExpFloat64() * 300_000) // mean 300us, long tail
	}
	out["exponential"] = exp

	rng = rand.New(rand.NewSource(43))
	bimodal := make([]int64, 20000)
	for i := range bimodal {
		if rng.Intn(100) < 95 {
			bimodal[i] = 40_000 + rng.Int63n(5_000) // hits
		} else {
			bimodal[i] = 3_000_000 + rng.Int63n(800_000) // searches
		}
	}
	out["bimodal"] = bimodal

	small := make([]int64, 0, 64)
	for v := int64(0); v < 32; v++ {
		small = append(small, v, v) // exact linear region, with ties
	}
	out["small-exact"] = small

	return out
}

func TestHistQuantileVsSortReference(t *testing.T) {
	for name, samples := range histDistributions() {
		h := NewHist()
		sorted := append([]int64(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, v := range samples {
			h.Record(v)
		}
		if h.Count() != int64(len(samples)) {
			t.Fatalf("%s: count %d, want %d", name, h.Count(), len(samples))
		}
		if h.Min() != sorted[0] || h.Max() != sorted[len(sorted)-1] {
			t.Fatalf("%s: min/max %d/%d, want %d/%d", name, h.Min(), h.Max(), sorted[0], sorted[len(sorted)-1])
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			got := h.Quantile(q)
			ref := refQuantile(sorted, q)
			// Quantile reports the bucket's upper bound: >= the true
			// quantile, within one sub-bucket (1/32 relative) above it.
			if got < ref {
				t.Errorf("%s q=%v: hist %d < reference %d (must be conservative)", name, q, got, ref)
			}
			if limit := ref + ref/histSubCount + 1; got > limit {
				t.Errorf("%s q=%v: hist %d exceeds reference %d by more than 1/%d", name, q, got, ref, histSubCount)
			}
		}
	}
}

func TestHistLinearRegionExact(t *testing.T) {
	h := NewHist()
	for v := int64(0); v < histSubCount; v++ {
		h.Record(v)
	}
	for v := int64(0); v < histSubCount; v++ {
		q := (float64(v) + 1) / float64(histSubCount)
		if got := h.Quantile(q); got != v {
			t.Fatalf("linear region not exact: Quantile(%v) = %d, want %d", q, got, v)
		}
	}
}

func TestHistBucketRoundTrip(t *testing.T) {
	// Every sample must land in a bucket whose upper bound is >= it and
	// whose width respects the 1/32 relative-error contract.
	rng := rand.New(rand.NewSource(44))
	check := func(v int64) {
		idx := bucketOf(v)
		high := bucketHigh(idx)
		if high < v {
			t.Fatalf("bucketHigh(bucketOf(%d)) = %d < sample", v, high)
		}
		if v >= histSubCount && high-v > v/histSubCount {
			t.Fatalf("bucket width too wide at %d: high %d", v, high)
		}
		if idx > 0 && bucketHigh(idx-1) >= v {
			t.Fatalf("sample %d should be in bucket %d, but bucket %d also covers it", v, idx, idx-1)
		}
	}
	for v := int64(0); v < 4096; v++ {
		check(v)
	}
	for i := 0; i < 100000; i++ {
		check(rng.Int63())
	}
	check(math.MaxInt64)
	if got := bucketOf(-5); got != 0 {
		t.Fatalf("negative sample bucketed at %d, want 0", got)
	}
}

func TestHistMergeEqualsGlobal(t *testing.T) {
	// The harness merges per-shard histograms; merging must be exact:
	// merged buckets equal the buckets of one histogram fed everything.
	rng := rand.New(rand.NewSource(45))
	global := NewHist()
	parts := []*Hist{NewHist(), NewHist(), NewHist(), NewHist()}
	for i := 0; i < 50000; i++ {
		v := int64(rng.ExpFloat64() * 123_456)
		global.Record(v)
		parts[rng.Intn(len(parts))].Record(v)
	}
	merged := NewHist()
	for _, p := range parts {
		merged.Merge(p)
	}
	if *merged != *global {
		t.Fatalf("merged per-shard histograms differ from global:\n merged %v\n global %v", merged, global)
	}
}

func TestHistMergeAssociative(t *testing.T) {
	mk := func(seed int64, n int, scale float64) *Hist {
		rng := rand.New(rand.NewSource(seed))
		h := NewHist()
		for i := 0; i < n; i++ {
			h.Record(int64(rng.ExpFloat64() * scale))
		}
		return h
	}
	a, b, c := mk(46, 9000, 50_000), mk(47, 11000, 700_000), mk(48, 5000, 2_000)

	left := a.Clone()
	left.Merge(b)
	left.Merge(c)

	bc := b.Clone()
	bc.Merge(c)
	right := a.Clone()
	right.Merge(bc)

	if *left != *right {
		t.Fatalf("merge not associative:\n (a+b)+c %v\n a+(b+c) %v", left, right)
	}

	ba := b.Clone()
	ba.Merge(a)
	ab := a.Clone()
	ab.Merge(b)
	if *ab != *ba {
		t.Fatalf("merge not commutative:\n a+b %v\n b+a %v", ab, ba)
	}
}

func TestHistEmptyAndMergeEmpty(t *testing.T) {
	h := NewHist()
	if h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Merge(NewHist())
	if h.Count() != 0 {
		t.Fatal("merging two empties must stay empty")
	}
	h.Record(7)
	h.Merge(NewHist())
	if h.Min() != 7 || h.Max() != 7 || h.Count() != 1 {
		t.Fatalf("merging an empty histogram disturbed state: %v", h)
	}
	e := NewHist()
	e.Merge(h)
	if e.Min() != 7 || e.Max() != 7 || e.Count() != 1 {
		t.Fatalf("merging into an empty histogram lost state: %v", e)
	}
}

func TestHistRecordZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocs-per-run is meaningless")
	}
	h := NewHist()
	v := int64(123_456)
	if avg := testing.AllocsPerRun(200, func() { h.Record(v); v += 997 }); avg != 0 {
		t.Fatalf("Record allocates %.1f times per call, want 0", avg)
	}
}

func BenchmarkHistRecord(b *testing.B) {
	h := NewHist()
	b.ReportAllocs()
	v := int64(1)
	for n := 0; n < b.N; n++ {
		h.Record(v)
		v = v*6364136223846793005 + 1442695040888963407
		if v < 0 {
			v = -v
		}
	}
}

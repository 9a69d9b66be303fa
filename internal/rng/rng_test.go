package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical first draw")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) hit only %d values", len(seen))
	}
}

func TestPoissonMean(t *testing.T) {
	s := New(13)
	for _, mean := range []float64{0.5, 3, 20, 200} {
		sum := 0.0
		const n = 20000
		for i := 0; i < n; i++ {
			sum += float64(s.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > mean*0.05+0.05 {
			t.Fatalf("Poisson(%v) mean = %v", mean, got)
		}
	}
}

func TestPoissonZeroMean(t *testing.T) {
	s := New(1)
	if s.Poisson(0) != 0 || s.Poisson(-1) != 0 {
		t.Fatal("Poisson of non-positive mean should be 0")
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(17)
	var sum, sq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := s.Normal()
		sum += v
		sq += v * v
	}
	mean, varr := sum/n, sq/n
	if math.Abs(mean) > 0.01 {
		t.Fatalf("Normal mean = %v", mean)
	}
	if math.Abs(varr-1) > 0.02 {
		t.Fatalf("Normal variance = %v", varr)
	}
}

func TestLogNormalMedian(t *testing.T) {
	s := New(19)
	var below int
	const n = 100000
	median := math.Exp(1.7)
	for i := 0; i < n; i++ {
		if s.LogNormal(1.7, 0.9) < median {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("lognormal median fraction = %v", frac)
	}
}

func TestZipfSkew(t *testing.T) {
	s := New(31)
	z := NewZipf(s, 100, 1.2)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("Zipf rank 0 (%d) not more popular than rank 50 (%d)", counts[0], counts[50])
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 100000 {
		t.Fatalf("Zipf sample lost draws: %d", total)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := New(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkLogNormal(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.LogNormal(1, 0.5)
	}
}

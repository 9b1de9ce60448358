package main

import (
	"math"
	"testing"
	"time"
)

func hist(n int) *latHist {
	h := &latHist{}
	for i := 1; i <= n; i++ {
		h.add(int64(i))
	}
	return h
}

func TestPercentileNearestRankAndBeyond(t *testing.T) {
	cases := []struct {
		n         int
		p         float64
		v         int64
		beyond    int
		supported bool
	}{
		{1000, 99, 990, 10, true},  // exactly minBeyond samples past p99
		{999, 99, 990, 9, false},   // one short: the tail is not supported
		{2000, 99, 1980, 20, true}, // sample count doubles the support
		{100, 50, 50, 50, true},
		{1, 50, 1, 0, false},
		{10, 99, 10, 0, false},
	}
	for _, c := range cases {
		v, beyond, ok := hist(c.n).percentile(c.p)
		if math.Abs(float64(v-c.v)) > float64(c.v)/histSub || beyond != c.beyond || ok != c.supported {
			t.Errorf("percentile(n=%d, p=%v) = %d, %d beyond, ok=%v; want ~%d, %d, %v",
				c.n, c.p, v, beyond, ok, c.v, c.beyond, c.supported)
		}
	}
	if _, _, ok := (&latHist{}).percentile(50); ok {
		t.Error("empty sample reported as supported")
	}
}

func TestHistogramBucketsBoundError(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 63, 64, 127, 128, 1000, 123456, 9876543, 1 << 39} {
		i := bucketOf(v)
		if i < prev {
			t.Fatalf("bucket of %d (%d) below the previous value's", v, i)
		}
		prev = i
		if mid := bucketMid(i); math.Abs(float64(mid-v)) > float64(v)/histSub+0.5 {
			t.Errorf("value %d lands in bucket %d with midpoint %d", v, i, mid)
		}
	}
	var a, b latHist
	a.add(10)
	b.add(30)
	a.merge(&b)
	if a.n != 2 || a.sum != 40 {
		t.Errorf("merged n=%d sum=%d", a.n, a.sum)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

func TestZipfDeterministicPerSeed(t *testing.T) {
	draw := func(seed int64) []uint64 {
		z := newZipf(seed, meshKeys)
		out := make([]uint64, 256)
		for i := range out {
			out[i] = z.Uint64()
			if out[i] >= meshKeys {
				t.Fatalf("draw %d out of range", out[i])
			}
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 diverged at draw %d", i)
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("seeds 7 and 8 drew identical sequences")
	}
	// Skew: key 0 is the most popular.
	counts := make([]int, meshKeys)
	z := newZipf(1, meshKeys)
	for i := 0; i < 10000; i++ {
		counts[z.Uint64()]++
	}
	for k := 1; k < meshKeys; k++ {
		if counts[k] > counts[0] {
			t.Fatalf("key %d drawn %d times, more than key 0 (%d)", k, counts[k], counts[0])
		}
	}
}

func TestGeneratedInputsRepeatPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := generate(w, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(w, 3, 2)
		c, _ := generate(w, 4, 2)
		if a.digest != b.digest {
			t.Errorf("%s: same seed, digests %x and %x", w.name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 3 and 4 share digest %x", w.name, a.digest)
		}
	}
}

func TestLadderDeltas(t *testing.T) {
	rungs := map[string]float64{
		rungSimnet: 15, rungGroupN1: 35, rungGroupN2: 52, rungFleet: 70, rungMesh: 76,
	}
	got := ladderDeltas(rungs, rungs[rungGroupN2])
	want := map[string]float64{
		"nvkernel.monitor_us": 20, "nvkernel.variant_us": 17, "fleet.proxy_us": 18, "mesh.route_us": 6,
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	// A substitute base (fleet rungs on other documents) moves only the
	// proxy delta.
	if d := ladderDeltas(rungs, 60)["fleet.proxy_us"]; d != 10 {
		t.Errorf("proxy over substitute base = %v, want 10", d)
	}
	// Missing rungs leave their deltas out.
	partial := ladderDeltas(map[string]float64{rungSimnet: 15, rungGroupN1: 35}, 0)
	if len(partial) != 1 || partial["nvkernel.monitor_us"] != 20 {
		t.Errorf("partial ladder deltas = %v", partial)
	}
}

func TestExpositionParsing(t *testing.T) {
	before := parseExposition([]byte(`# HELP x_total help
# TYPE x_total counter
x_total{call="read"} 3
x_total{call="write"} 4
h_seconds_bucket{le="0.001"} 1
h_seconds_sum 0.5
h_seconds_count 2
`))
	after := parseExposition([]byte(`x_total{call="read"} 5
x_total{call="write"} 10
h_seconds_sum 1.5
h_seconds_count 4
`))
	if d := familyDelta(before, after, "x_total"); d != 8 {
		t.Errorf("family delta = %v, want 8", d)
	}
	if m, n := histMean(before, after, "h_seconds"); m != 0.5 || n != 2 {
		t.Errorf("histMean = %v over %v, want 0.5 over 2", m, n)
	}
	if m, n := histMean(after, after, "h_seconds"); m != 0 || n != 0 {
		t.Errorf("histMean without observations = %v over %v", m, n)
	}
}

func TestSelfTime(t *testing.T) {
	b := &spanBuf{}
	b.spans = []span{
		{name: spanRequest, parent: -1, start: 0, end: 100},
		{name: spanDial, parent: 0, start: 10, end: 20},
		{name: spanRecv, parent: 0, start: 30, end: 90},
	}
	st := selfTimes([]*spanBuf{b})
	if s := st[spanNames[spanRequest]]; s.self != 30*time.Nanosecond || s.total != 100*time.Nanosecond {
		t.Errorf("request self %v total %v, want 30ns 100ns", s.self, s.total)
	}
	if s := st[spanNames[spanRecv]]; s.self != 60*time.Nanosecond {
		t.Errorf("recv self %v, want 60ns", s.self)
	}
}

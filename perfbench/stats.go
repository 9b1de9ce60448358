package main

import (
	"bufio"
	"bytes"
	"hash"
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"nvariant/internal/obs"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: fewer and the percentile is an extrapolation.
const minBeyond = 10

// histSub is the number of sub-buckets per power of two in latHist: a
// recorded value is off by at most 1/histSub of itself (0.1%).
const (
	histBits = 10
	histSub  = 1 << histBits
)

// histBuckets covers values up to 2^41 ns (about 36 minutes).
const histBuckets = histSub * 32

// latHist is a fixed-size log-linear latency histogram in ns. Values
// below histSub are exact.
type latHist struct {
	counts [histBuckets]uint32
	n      int
	sum    int64
}

func bucketOf(v int64) int {
	if v < histSub {
		return int(max(v, 0))
	}
	e := bits.Len64(uint64(v)) - histBits - 1 // v>>e lies in [histSub, 2*histSub)
	return min(e*histSub+int(v>>e), histBuckets-1)
}

// bucketMid is the midpoint of bucket i's value range.
func bucketMid(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	e := i/histSub - 1
	lo := int64(i%histSub+histSub) << e
	return lo + (int64(1)<<e)/2
}

func (h *latHist) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100),
// the number of samples strictly beyond it, and whether that number
// meets minBeyond. An empty histogram reports ok = false.
func (h *latHist) percentile(p float64) (v int64, beyond int, ok bool) {
	if h.n == 0 {
		return 0, 0, false
	}
	rank := min(max(int(math.Ceil(p/100*float64(h.n))), 1), h.n)
	seen := 0
	for i, c := range h.counts {
		seen += int(c)
		if seen >= rank {
			v = bucketMid(i)
			break
		}
	}
	beyond = h.n - rank
	return v, beyond, beyond >= minBeyond
}

// median returns the middle value of xs (the mean of the two middle
// values for even lengths); xs is sorted in place. Empty input is 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// mean returns the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// zipfSkew is the Zipf exponent of mesh session popularity: the hottest
// of 64 keys draws ~25% of requests, the coldest ~0.3%.
const zipfSkew = 1.1

// newZipf returns a Zipf draw over [0, n) driven by its own seeded
// source, so the same seed yields the same key sequence.
func newZipf(seed int64, n int) *rand.Zipf {
	return rand.NewZipf(rand.New(rand.NewSource(seed)), zipfSkew, 1, uint64(n-1))
}

// Ladder rung names, bottom to top.
const (
	rungSimnet  = "simnet"
	rungGroupN1 = "group-n1"
	rungGroupN2 = "group-n2"
	rungFleet   = "fleet"
	rungMesh    = "mesh"
)

// ladderDeltas turns per-rung mean request times (µs) into the cost
// each layer adds: the monitor (N=1 over bare simnet), the second
// variant (N=2 over N=1), the fleet dispatcher (fleet over the group)
// and the mesh router (mesh over fleet). base is the group-n2 time on
// the stream the fleet and mesh rungs served; it differs from
// rungs[group-n2] only when those rungs had to serve other documents.
// A delta whose rungs are missing is reported as absent.
func ladderDeltas(rungs map[string]float64, base float64) map[string]float64 {
	out := map[string]float64{}
	diff := func(name string, hi float64, hiOK bool, lo float64, loOK bool) {
		if hiOK && loOK {
			out[name] = hi - lo
		}
	}
	sim, okSim := rungs[rungSimnet]
	n1, okN1 := rungs[rungGroupN1]
	n2, okN2 := rungs[rungGroupN2]
	fl, okFl := rungs[rungFleet]
	me, okMe := rungs[rungMesh]
	diff("nvkernel.monitor_us", n1, okN1, sim, okSim)
	diff("nvkernel.variant_us", n2, okN2, n1, okN1)
	diff("fleet.proxy_us", fl, okFl, base, base > 0)
	diff("mesh.route_us", me, okMe, fl, okFl)
	return out
}

// digest is an FNV-1a hash over the generated inputs, printed so two
// runs can be shown to have sent identical request streams.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) add(parts ...string) {
	for _, p := range parts {
		_, _ = d.h.Write([]byte(p))
		_, _ = d.h.Write([]byte{0})
	}
}

func (d *digest) addInt(v int64) { d.add(strconv.FormatInt(v, 10)) }

func (d *digest) sum() uint64 { return d.h.Sum64() }

// scrape is one snapshot of an obs registry, parsed from its
// Prometheus exposition: series name (with labels) → value.
type scrape map[string]float64

// takeScrape renders reg and parses every sample line.
func takeScrape(reg *obs.Registry) scrape {
	var buf bytes.Buffer
	_ = reg.WritePrometheus(&buf) // a bytes.Buffer write cannot fail
	return parseExposition(buf.Bytes())
}

// parseExposition parses Prometheus text samples; comments and
// malformed lines are skipped.
func parseExposition(data []byte) scrape {
	s := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		s[line[:i]] += v
	}
	return s
}

// family sums every series of the named family (all label sets).
func (s scrape) family(name string) float64 {
	t := 0.0
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// delta returns after − before for one family.
func familyDelta(before, after scrape, name string) float64 {
	return after.family(name) - before.family(name)
}

// histMean returns the mean observation (in seconds) a histogram family
// gained between two scrapes, and its observation count.
func histMean(before, after scrape, name string) (float64, float64) {
	n := familyDelta(before, after, name+"_count")
	if n <= 0 {
		return 0, 0
	}
	return familyDelta(before, after, name+"_sum") / n, n
}

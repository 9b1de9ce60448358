package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span names, one per layer boundary the benchmark calls across.
const (
	spanRequest      = iota // loadgen: one benign request (root)
	spanDial                // simnet: client Dial
	spanSend                // simnet: client Send
	spanRecv                // simnet: client Recv (server work + reply)
	spanMeshFetch           // mesh: Session.Fetch
	spanHarnessStart        // harness: StartSpecOn
	spanHarnessStop         // harness: Handle.Stop
	spanFleetNew            // fleet: New
	spanFleetStop           // fleet: Stop
	spanMeshNew             // mesh: New
	spanMeshStop            // mesh: Stop
	spanAwait               // fleet/mesh: wait for full pool size
	spanProbe               // loadgen: one attack probe (root)
	spanOverflow            // attack: forged-UID overflow request
	spanTrigger             // attack: first-use trigger requests until detection
	spanReplenish           // fleet: AwaitReplenished after a detection
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"loadgen.request", "simnet.dial", "simnet.send", "simnet.recv", "mesh.fetch",
	"harness.start", "harness.stop", "fleet.new", "fleet.stop", "mesh.new", "mesh.stop",
	"pool.await_full", "loadgen.probe", "attack.overflow", "attack.trigger", "fleet.await_replenished",
}

// traceSample traces one benign request in this many; lifecycle and
// probe spans are always traced.
const traceSample = 8

// spanCap bounds one goroutine's span buffer; spans past it are counted
// and dropped so a long run cannot exhaust memory.
const spanCap = 1 << 16

type span struct {
	name       uint8
	parent     int32 // index in the same buffer, -1 for a root
	req        int64
	start, end int64 // ns since the tracer's epoch
}

// spanBuf is one goroutine's span record. A nil *spanBuf records
// nothing, so untraced runs pay one nil check per boundary.
type spanBuf struct {
	epoch   time.Time
	spans   []span
	dropped int
}

// tracer owns the span buffers of one traced run.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	bufs  []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// buf returns a fresh buffer for one goroutine; nil on a nil tracer.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{epoch: t.epoch, spans: make([]span, 0, 1024)}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// begin opens a span and returns its handle (-1 when not recorded).
func (b *spanBuf) begin(name int, parent int32, req int64) int32 {
	if b == nil {
		return -1
	}
	if len(b.spans) >= spanCap {
		b.dropped++
		return -1
	}
	b.spans = append(b.spans, span{name: uint8(name), parent: parent, req: req, start: int64(time.Since(b.epoch))})
	return int32(len(b.spans) - 1)
}

// end closes a span opened by begin.
func (b *spanBuf) end(i int32) {
	if b == nil || i < 0 {
		return
	}
	b.spans[i].end = int64(time.Since(b.epoch))
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	count       int
	total, self time.Duration
}

// selfTimes returns per-name counts, total and self time. A span's self
// time is its duration minus the union of its children's intervals.
func selfTimes(bufs []*spanBuf) map[string]spanStat {
	out := map[string]spanStat{}
	for _, b := range bufs {
		children := make([][]int, len(b.spans))
		for i, s := range b.spans {
			if s.parent >= 0 {
				children[s.parent] = append(children[s.parent], i)
			}
		}
		for i, s := range b.spans {
			if s.end == 0 {
				continue // never closed (dropped mid-flight)
			}
			var iv [][2]int64
			for _, c := range children[i] {
				if b.spans[c].end > 0 {
					iv = append(iv, [2]int64{b.spans[c].start, b.spans[c].end})
				}
			}
			dur := s.end - s.start
			st := out[spanNames[s.name]]
			st.count++
			st.total += time.Duration(dur)
			st.self += time.Duration(dur - covered(iv, s.start, s.end))
			out[spanNames[s.name]] = st
		}
	}
	return out
}

// covered returns how much of [lo, hi) the union of intervals covers.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, cur int64 = 0, lo
	for _, x := range iv {
		s, e := x[0], x[1]
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// writeNDJSON writes every span as one JSON object per line. Span ids
// are global across buffers; parent is -1 for roots.
func writeNDJSON(w io.Writer, bufs []*spanBuf) error {
	bw := bufio.NewWriter(w)
	base := 0
	for _, b := range bufs {
		for i, s := range b.spans {
			parent := -1
			if s.parent >= 0 {
				parent = base + int(s.parent)
			}
			if _, err := fmt.Fprintf(bw, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"req":%d}`+"\n",
				base+i, spanNames[s.name], s.start, s.end, parent, s.req); err != nil {
				return err
			}
		}
		base += len(b.spans)
	}
	return bw.Flush()
}

// dump writes the tracer's spans to dir/name and returns the path.
func (t *tracer) dump(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := writeNDJSON(f, t.bufs); err != nil {
		_ = f.Close()
		return "", err
	}
	return path, f.Close()
}

// printSelfTimes writes the per-span self-time table.
func printSelfTimes(w io.Writer, stats map[string]spanStat, dropped int) {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# span self time (dropped %d):\n", dropped)
	for _, n := range names {
		s := stats[n]
		fmt.Fprintf(w, "#   %-24s n=%-7d mean_us=%-10.2f self_us=%.2f\n", n, s.count,
			float64(s.total.Microseconds())/float64(s.count), float64(s.self.Nanoseconds())/1e3/float64(s.count))
	}
}

// dropped sums spans lost to full buffers.
func (t *tracer) dropped() int {
	n := 0
	for _, b := range t.bufs {
		n += b.dropped
	}
	return n
}

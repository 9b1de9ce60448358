package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nvariant/internal/attack"
	"nvariant/internal/httpd"
	"nvariant/internal/nvkernel"
	"nvariant/internal/simnet"
	"nvariant/internal/vos"
)

// engineResult is one closed-loop engine's record of the measured
// window. Storage is allocated before the window opens and never grows,
// so the benchmark's own heap does not change the program's GC pacing
// while it is measured.
type engineResult struct {
	wins     []windowStat // one per sub-window
	dropped  int          // requests whose first attempt failed in transport
	failed   int          // of those, requests whose retry failed too
	wrong    int          // answers with the wrong status or body length
	firstBad string       // the first wrong answer, for the report
}

func (r *engineResult) ok() int {
	n := 0
	for i := range r.wins {
		n += r.wins[i].ok
	}
	return n
}

func (r *engineResult) attempted() int { return r.ok() + r.failed + r.wrong }

// windowStat is one sub-window's correctly answered requests.
type windowStat struct {
	secs  float64
	cpu   time.Duration
	ok    int
	bytes int64
	lat   latHist
}

// window gates what engines record: only requests started while
// measuring is set count.
type window struct {
	measuring atomic.Bool
	stop      atomic.Bool
	t0        atomic.Int64 // window start, Unix ns
	width     time.Duration
}

// runEngine drives a closed loop over stream e until w.stop. A request
// whose first attempt fails in transport (a connection the monitor
// killed mid-request) is retried once, as an HTTP client retries an
// idempotent GET; its latency includes the retry.
func runEngine(t *target, in *inputs, e int, w *window, windows int, tb *spanBuf) engineResult {
	r := engineResult{wins: make([]windowStat, windows)}
	c := t.client()
	stream := in.streams[e]
	var keys []int
	if in.keyIdx != nil {
		keys = in.keyIdx[e]
	}
	for i := 0; !w.stop.Load(); i++ {
		j := i % len(stream)
		u, key := stream[j], 0
		if keys != nil {
			key = keys[j]
		}
		measured := w.measuring.Load()
		var root int32 = -1
		if tb != nil && i%traceSample == 0 {
			root = tb.begin(spanRequest, -1, int64(e)<<40|int64(i))
		}
		start := time.Now()
		code, n, err := c.tracedFetch(in.reqs[u], key, tb, root, int64(e)<<40|int64(i))
		retried := err != nil
		if retried {
			code, n, err = c.tracedFetch(in.reqs[u], key, tb, root, int64(e)<<40|int64(i))
		}
		el := time.Since(start)
		tb.end(root)
		if !measured {
			continue
		}
		if retried {
			r.dropped++
		}
		switch exp := in.expect[u]; {
		case err != nil:
			r.failed++
		case code != exp.code || n != exp.bodyLen:
			r.wrong++
			if r.firstBad == "" {
				r.firstBad = fmt.Sprintf("%s: got %d/%dB, want %d/%dB", in.uris[u], code, n, exp.code, exp.bodyLen)
			}
		default:
			i := int(time.Duration(start.UnixNano()-w.t0.Load()) / w.width)
			i = max(0, min(i, windows-1))
			r.wins[i].ok++
			r.wins[i].bytes += int64(n)
			r.wins[i].lat.add(int64(el))
		}
	}
	return r
}

// tracedFetch is fetch with simnet dial/send/recv spans when traced.
// Mesh requests are one mesh.fetch span: the session dials internally.
func (c client) tracedFetch(req []byte, key int, tb *spanBuf, root int32, id int64) (int, int, error) {
	if root < 0 {
		return c.fetch(req, key)
	}
	if c.http == nil {
		sp := tb.begin(spanMeshFetch, root, id)
		code, n, err := c.fetch(req, key)
		tb.end(sp)
		return code, n, err
	}
	return exchange(c.t.net, c.t.port, req, tb, root, id)
}

// exchange is one request over a fresh simnet connection with a span
// per call: the same calls httpd.Client.Fetch makes.
func exchange(net *simnet.Network, port uint16, req []byte, tb *spanBuf, root int32, id int64) (int, int, error) {
	sp := tb.begin(spanDial, root, id)
	conn, err := net.Dial(port)
	tb.end(sp)
	if err != nil {
		return 0, 0, err
	}
	defer func() { _ = conn.Close() }()
	sp = tb.begin(spanSend, root, id)
	err = conn.Send(req)
	tb.end(sp)
	if err != nil {
		return 0, 0, err
	}
	sp = tb.begin(spanRecv, root, id)
	resp, err := conn.Recv()
	tb.end(sp)
	if err != nil {
		return 0, 0, err
	}
	if resp == nil {
		return 0, 0, httpd.ErrConnClosed
	}
	code, perr := httpd.ParseStatus(resp)
	n := len(httpd.Body(resp))
	simnet.PutBuffer(resp)
	return code, n, perr
}

// probeRecord is one attack probe's timeline.
type probeRecord struct {
	lag, detect, recover time.Duration // lag: send − due; detect/recover: from send
}

// attackResult is the attacker's record.
type attackResult struct {
	probes []probeRecord
	leaks  int    // responses that carried the secret
	err    error  // a probe that was not detected or not recovered from
	bad    string // a trigger answered with something other than 403
}

// runAttacker sends the forged-UID overflow on schedule (open loop) and
// triggers first use until the fleet's alarm count rises, then waits
// for the pool to be replenished. It stops at w.stop or the schedule's
// end.
func runAttacker(t *target, schedule []time.Duration, w *window, tb *spanBuf) attackResult {
	var r attackResult
	f := t.fleet
	c := f.Client()
	payload := attack.ForgeUIDPayload(vos.Root)
	trigger := httpd.AppendRequest(nil, secretURI)
	want403 := len(httpd.ErrorBody(403))
	baseAlarms, baseReplaced := f.AlarmCount(), f.Stats().Replaced
	begin := time.Now()
	for k, at := range schedule {
		due := begin.Add(at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if w.stop.Load() {
			break
		}
		sent := time.Now()
		id := int64(k)
		root := tb.begin(spanProbe, -1, id)
		sp := tb.begin(spanOverflow, root, id)
		raw, err := c.Raw(payload)
		tb.end(sp)
		if err == nil && httpd.ContainsSecret(httpd.Body(raw)) {
			r.leaks++
		}
		sp = tb.begin(spanTrigger, root, id)
		want := baseAlarms + uint64(k+1)
		deadline := sent.Add(awaitTimeout)
		for f.AlarmCount() < want {
			if time.Now().After(deadline) {
				r.err = fmt.Errorf("probe %d not detected within %v", k, awaitTimeout)
				return r
			}
			raw, err := c.Raw(trigger)
			if err != nil {
				continue // the struck group was killed under this trigger
			}
			if httpd.ContainsSecret(httpd.Body(raw)) {
				r.leaks++
			}
			if code, _ := httpd.ParseStatus(raw); code != 403 || len(httpd.Body(raw)) != want403 {
				if r.bad == "" {
					r.bad = fmt.Sprintf("trigger answered %d/%dB", code, len(httpd.Body(raw)))
				}
			}
		}
		tb.end(sp)
		detected := time.Now()
		sp = tb.begin(spanReplenish, root, id)
		err = f.AwaitReplenished(baseReplaced+k+1, t.size, awaitTimeout)
		tb.end(sp)
		tb.end(root)
		if err != nil {
			r.err = fmt.Errorf("probe %d: %w", k, err)
			return r
		}
		r.probes = append(r.probes, probeRecord{lag: sent.Sub(due), detect: detected.Sub(sent), recover: time.Since(sent)})
	}
	return r
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set in MiB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// loadResult is one measured phase, split into equal sub-windows so
// metrics can be reported as medians over them.
type loadResult struct {
	engines []engineResult
	attack  attackResult
	elapsed time.Duration
	bounds  []time.Duration // sub-window ends, from the window start
	cpus    []time.Duration // CPU time used in each sub-window
}

// sum merges the engines' records into one.
func (l *loadResult) sum() engineResult {
	t := engineResult{wins: make([]windowStat, len(l.bounds))}
	var prev time.Duration
	for i, b := range l.bounds {
		t.wins[i].secs, t.wins[i].cpu = (b - prev).Seconds(), l.cpus[i]
		prev = b
	}
	for _, e := range l.engines {
		for i := range e.wins {
			t.wins[i].ok += e.wins[i].ok
			t.wins[i].bytes += e.wins[i].bytes
			t.wins[i].lat.merge(&e.wins[i].lat)
		}
		t.dropped += e.dropped
		t.failed += e.failed
		t.wrong += e.wrong
		if t.firstBad == "" {
			t.firstBad = e.firstBad
		}
	}
	return t
}

// runLoad runs engines closed-loop (and the attacker, when schedule is
// set) for warm, then measures for dur in windows sub-windows. With a tracer every engine and
// the attacker record spans. mark, when set, is called as the measured
// window opens and as it closes.
func runLoad(t *target, in *inputs, engines int, warm, dur time.Duration, windows int, schedule []time.Duration, tr *tracer, mark func()) loadResult {
	w := window{width: dur / time.Duration(windows)}
	res := loadResult{engines: make([]engineResult, engines)}
	var wg sync.WaitGroup
	for e := 0; e < engines; e++ {
		tb := tr.buf()
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			res.engines[e] = runEngine(t, in, e, &w, windows, tb)
		}(e)
	}
	time.Sleep(warm)
	if mark != nil {
		mark()
	}
	cpuPrev, t0 := cpuTime(), time.Now()
	w.t0.Store(t0.UnixNano())
	w.measuring.Store(true)
	var attackDone chan attackResult
	if schedule != nil {
		attackDone = make(chan attackResult, 1)
		tb := tr.buf()
		go func() { attackDone <- runAttacker(t, schedule, &w, tb) }()
	}
	for i := 1; i <= windows; i++ {
		time.Sleep(time.Until(t0.Add(dur * time.Duration(i) / time.Duration(windows))))
		c := cpuTime()
		res.bounds = append(res.bounds, time.Since(t0))
		res.cpus = append(res.cpus, c-cpuPrev)
		cpuPrev = c
	}
	w.measuring.Store(false)
	res.elapsed = time.Since(t0)
	if mark != nil {
		mark()
	}
	w.stop.Store(true)
	wg.Wait()
	if attackDone != nil {
		res.attack = <-attackDone
	}
	return res
}

// checkAlarms verifies a stack's alarms: none on a benign workload, and
// on an attacked one exactly one uid-divergence detection per probe.
func checkAlarms(t *target, rep stopReport, probes int) error {
	if rep.alarms != probes || rep.detections != probes {
		return fmt.Errorf("%d alarms and %d detections, want %d", rep.alarms, rep.detections, probes)
	}
	if t.kind != stackFleet {
		return nil
	}
	for _, e := range t.fleet.Audit().Alarms() {
		if e.Alarm.Reason != nvkernel.ReasonUIDDivergence {
			return fmt.Errorf("group %d alarmed with %s, want uid-divergence", e.GroupID, e.Alarm.Reason)
		}
	}
	return nil
}

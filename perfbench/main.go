// Command perfbench is the repository's benchmark: it drives the
// monitored web server through one of four workloads on the in-process
// simnet, checks every response, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics and cost ladder (--trace 1) as
// one JSON object on its last line. See README.md.
//
//	go run . --workload group-small --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"nvariant/internal/harness"
	"nvariant/internal/mesh"
	"nvariant/internal/obs"
	"nvariant/internal/reexpress"
)

// rounds is how many load phases an untraced run is split into. Each
// round ends with its share of the crash recoveries and a timed rebuild
// of the stack, so load, recovery and set-up are each sampled across
// the whole run: a stretch of host slowdown shorter than half the run
// moves a minority of every metric's samples instead of all of one
// metric's. setup_s is the median of the rounds' builds.
const rounds = 5

// recoverReps is how many crash-and-restart recoveries a benign run
// times, spread over its rounds.
const recoverReps = 81

// warmup runs before the first measured window of a load phase;
// roundWarmup before those of later rounds, on the rebuilt stack.
const (
	warmup      = 500 * time.Millisecond
	roundWarmup = 250 * time.Millisecond
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: group-small, group-large, mesh-zipf or fleet-attack")
	seed := flag.Int64("seed", 1, "seed all inputs derive from")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	in, err := generate(w, *seed, *seconds)
	if err != nil {
		fail(err)
	}
	fmt.Printf("# workload %s seed %d inputs %016x engines %d\n", w.name, *seed, in.digest, engineCount(w))
	fmt.Printf("# env nproc=%d GOMAXPROCS=%d go=%s cpu=%q transport=in-process simnet (no real link)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	b := &bench{w: w, in: in, dur: time.Duration(*seconds) * time.Second}
	var rep *report
	if *trace == 1 {
		rep, err = b.traced()
	} else {
		rep, err = b.endToEnd()
	}
	if err != nil {
		var bad checkError
		if !errors.As(err, &bad) {
			fail(err)
		}
		fmt.Printf("# CHECK FAILED: %v\n", err)
		rep = &report{Correct: false, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}

// checkError marks a failed correctness check, as opposed to a run that
// could not be carried out.
type checkError struct{ msg string }

func (e checkError) Error() string { return e.msg }

func checkf(format string, args ...any) error { return checkError{fmt.Sprintf(format, args...)} }

// cpuModel reads the processor name for the environment line.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// bench is one run of one workload.
type bench struct {
	w         workload
	in        *inputs
	dur       time.Duration
	attempted int
	failed    int
}

// account adds a load phase's benign requests to the run's totals and
// checks every answer and attack outcome.
func (b *bench) account(l *loadResult) (engineResult, error) {
	s := l.sum()
	b.attempted += s.attempted()
	b.failed += s.failed
	if s.wrong > 0 {
		return s, checkf("%d wrong answers, first %s", s.wrong, s.firstBad)
	}
	if s.ok() == 0 {
		return s, checkf("no request answered in the measured window")
	}
	a := l.attack
	if a.leaks > 0 {
		return s, checkf("%d responses carried the secret", a.leaks)
	}
	if a.bad != "" {
		return s, checkf("attack trigger: %s", a.bad)
	}
	if a.err != nil {
		return s, checkf("attack: %v", a.err)
	}
	if b.w.attack && len(a.probes) == 0 {
		return s, checkf("no probe completed")
	}
	return s, nil
}

// finish waits for full pool size, stops the stack and checks its
// alarms against the probes sent.
func (b *bench) finish(t *target, probes int, tb *spanBuf) (stopReport, error) {
	if err := t.awaitFull(tb); err != nil {
		_, _ = t.stop(tb)
		return stopReport{}, checkf("pool not at full size: %v", err)
	}
	rep, err := t.stop(tb)
	if err != nil {
		return rep, err
	}
	if err := checkAlarms(t, rep, probes); err != nil {
		return rep, checkf("%v", err)
	}
	return rep, nil
}

// timedBuild builds the workload's stack up to its first correct answer
// and returns it with the time that took in seconds.
func (b *bench) timedBuild(reg *obs.Registry, tb *spanBuf) (*target, float64, error) {
	// Start every build, and so the load after it, from a heap holding
	// no torn-down stack, so earlier builds do not set the run's peak
	// memory or GC pacing.
	runtime.GC()
	t0 := time.Now()
	t, err := build(b.w, b.in, reg, tb)
	if err != nil {
		return nil, 0, err
	}
	if err := firstReply(t, b.in); err != nil {
		_, _ = t.stop(tb)
		return nil, 0, checkf("%v", err)
	}
	return t, time.Since(t0).Seconds(), nil
}

// windows is the number of one-second sub-windows a measured phase is
// split into.
func (b *bench) windows() int { return int(b.dur / time.Second) }

func (b *bench) schedule() []time.Duration {
	if b.w.attack {
		return b.in.probes
	}
	return nil
}

// windowMetrics holds each one-second sub-window's rates and latency
// percentiles. Rates and percentiles are reported as medians over the
// sub-windows, so a burst of outside interference moves one window, not
// the result. A round's histograms are reduced to these values as it
// ends, so the benchmark's live heap, and with it the program's GC
// pacing, is the same in every round.
type windowMetrics struct {
	rps, kib, cpu, p50, p90 []float64
	ok, samples             int
	minBeyond               int // fewest samples beyond p90 in a window; -1 for none
}

func (m *windowMetrics) add(wins []windowStat) {
	for i := range wins {
		x := &wins[i]
		m.samples += x.lat.n
		m.ok += x.ok
		if x.ok == 0 {
			continue
		}
		m.rps = append(m.rps, float64(x.ok)/x.secs)
		m.kib = append(m.kib, float64(x.bytes)/1024/x.secs)
		m.cpu = append(m.cpu, us(x.cpu)/float64(x.ok))
		v50, _, _ := x.lat.percentile(50)
		m.p50 = append(m.p50, float64(v50)/1e3)
		v90, beyond, ok := x.lat.percentile(90)
		if ok {
			m.p90 = append(m.p90, float64(v90)/1e3)
		}
		if m.minBeyond < 0 || beyond < m.minBeyond {
			m.minBeyond = beyond
		}
	}
}

// endToEnd is the untraced run: every end-to-end metric.
func (b *bench) endToEnd() (*report, error) {
	n := min(rounds, b.windows())
	var (
		setups, recov      []float64
		attempted, dropped int
		probes             int
	)
	wm := windowMetrics{minBeyond: -1}
	t, secs, err := b.timedBuild(nil, nil)
	if err != nil {
		return nil, err
	}
	setups = append(setups, secs)
	for r := 0; r < n; r++ {
		share := func(total int) int { return total*(r+1)/n - total*r/n }
		warm := roundWarmup
		if r == 0 {
			warm = warmup
		}
		w := share(b.windows())
		l := runLoad(t, b.in, engineCount(b.w), warm, time.Duration(w)*time.Second, w, b.schedule(), nil, nil)
		s, err := b.account(&l)
		if err != nil {
			_, _ = t.stop(nil)
			return nil, err
		}
		wm.add(s.wins)
		attempted += s.attempted()
		dropped += s.dropped
		probes += len(l.attack.probes)
		if b.w.attack {
			for _, p := range l.attack.probes {
				recov = append(recov, ms(p.recover))
			}
		} else {
			var rs []float64
			if rs, t, err = b.crashRecoveries(t, recoverReps*r/n, share(recoverReps)); err != nil {
				return nil, err
			}
			recov = append(recov, rs...)
		}
		if _, err := b.finish(t, len(l.attack.probes), nil); err != nil {
			return nil, err
		}
		if r == n-1 {
			break
		}
		if t, secs, err = b.timedBuild(nil, nil); err != nil {
			return nil, err
		}
		setups = append(setups, secs)
	}
	rss := peakRSS()

	if len(wm.p90) == 0 {
		return nil, fmt.Errorf("run too short: no sub-window has %d samples beyond its p90", minBeyond)
	}
	fmt.Printf("# per-window req/s %.0f\n# per-window p90 us %.1f\n", wm.rps, wm.p90)
	fmt.Printf("# requests ok=%d dropped-first-try=%d failed=%d latency-samples=%d rounds=%d windows=%d p90-windows=%d min-beyond-p90=%d probes=%d recoveries=%d builds=%d\n",
		wm.ok, dropped, b.failed, wm.samples, n, len(wm.rps), len(wm.p90), wm.minBeyond, probes, len(recov), len(setups))
	m := map[string]metric{
		"throughput_rps": {median(wm.rps), "req/s"},
		"goodput_kib_s":  {median(wm.kib), "KiB/s"},
		"latency_p50_us": {median(wm.p50), "us"},
		"latency_p90_us": {median(wm.p90), "us"},
		"cpu_us_per_req": {median(wm.cpu), "us"},
		"success_ratio":  {float64(attempted-dropped) / float64(attempted), "ratio"},
		"recover_ms_p50": {median(recov), "ms"},
		"setup_s":        {median(setups), "s"},
		"rss_peak_mib":   {rss, "MiB"},
	}
	return &report{Correct: true, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}

// crashRecoveries crashes part of a benign workload's stack count
// times, numbering the crashes from first, and times each recovery up
// to full size: a lone group is stopped and restarted with a fresh spec
// up to its first correct answer; a mesh pool loses its oldest group
// and is awaited until replenished. It returns the recovery times in ms
// and the target left running.
func (b *bench) crashRecoveries(t *target, first, count int) ([]float64, *target, error) {
	var out []float64
	for i := first; i < first+count; i++ {
		t0 := time.Now()
		if t.kind == stackGroup {
			if _, err := b.finish(t, 0, nil); err != nil {
				return nil, nil, err
			}
			spec := reexpress.Generate(splitmix(b.in.seed, seedSpec+uint64(i+1)*seedStride), 2, variationStack...)
			nt, err := startGroup(b.in, harness.Config4UIDVariation, spec, nil, nil)
			if err != nil {
				return nil, nil, err
			}
			t = nt
			if err := firstReply(t, b.in); err != nil {
				_, _ = t.stop(nil)
				return nil, nil, checkf("after restart: %v", err)
			}
		} else {
			p := t.mesh.Pool(i % t.mesh.Pools())
			replaced := p.Stats().Replaced
			if !p.ShutdownGroup(p.OldestGroupID()) {
				_, _ = t.stop(nil)
				return nil, nil, fmt.Errorf("pool %d has no group to crash", i%t.mesh.Pools())
			}
			if err := p.AwaitReplenished(replaced+1, t.size, awaitTimeout); err != nil {
				_, _ = t.stop(nil)
				return nil, nil, checkf("pool not replenished: %v", err)
			}
		}
		out = append(out, ms(time.Since(t0)))
	}
	return out, t, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// traced is the traced run: an untraced slice (allocation counts and
// the overhead baseline), a traced slice with spans and the obs
// registry (per-layer counters), then the cost ladder and, where the
// workload lacks them, the security and rotation stages.
func (b *bench) traced() (*report, error) {
	slice := b.dur / 3

	// Untraced slice.
	t, _, err := b.timedBuild(nil, nil)
	if err != nil {
		return nil, err
	}
	var mem [2]runtime.MemStats
	marks := 0
	lu := runLoad(t, b.in, engineCount(b.w), warmup, slice, 1, b.schedule(), nil, func() {
		runtime.ReadMemStats(&mem[marks])
		marks++
	})
	su, err := b.account(&lu)
	if err != nil {
		_, _ = t.stop(nil)
		return nil, err
	}
	if _, err := b.finish(t, len(lu.attack.probes), nil); err != nil {
		return nil, err
	}

	// Traced slice.
	tr := newTracer()
	life := tr.buf()
	reg := obs.NewRegistry()
	if t, _, err = b.timedBuild(reg, life); err != nil {
		return nil, err
	}
	var before, after scrape
	lt := runLoad(t, b.in, engineCount(b.w), warmup, slice, 1, b.schedule(), tr, func() {
		if before == nil {
			before = takeScrape(reg)
		} else {
			after = takeScrape(reg)
		}
	})
	st, err := b.account(&lt)
	if err != nil {
		_, _ = t.stop(life)
		return nil, err
	}
	var meshStats *mesh.Stats
	if t.kind == stackMesh {
		s := t.mesh.Stats()
		meshStats = &s
	}
	stop, err := b.finish(t, len(lt.attack.probes), life)
	if err != nil {
		return nil, err
	}

	lad, err := runLadder(b.in, rungTime(b.dur))
	if err != nil {
		return nil, err
	}

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	reqs := familyDelta(before, after, "httpd_requests_total")
	if reqs <= 0 {
		return nil, fmt.Errorf("traced slice served no requests")
	}
	per := func(family string) float64 { return familyDelta(before, after, family) / reqs }
	stw := &st.wins[0]
	clientUS := float64(stw.lat.sum) / 1e3 / float64(stw.lat.n)
	rvMean, rvCount := histMean(before, after, "nvk_rendezvous_latency_seconds")
	svcMean, _ := histMean(before, after, "httpd_service_time_seconds")
	hits := familyDelta(before, after, "simnet_buffer_pool_hits_total")
	misses := familyDelta(before, after, "simnet_buffer_pool_misses_total")

	spans := selfTimes(tr.bufs)
	dial := lad.dialUS
	if s, ok := spans[spanNames[spanDial]]; ok && s.count > 0 {
		dial = us(s.total) / float64(s.count)
	}
	put("simnet.dial_us", dial, "us")
	put("simnet.msgs_per_req", per("simnet_messages_total"), "count")
	put("simnet.kib_per_req", per("simnet_bytes_total")/1024, "KiB")
	put("simnet.pool_miss_ratio", ratio(misses, hits+misses), "ratio")
	put("nvkernel.rendezvous_per_req", rvCount/reqs, "count")
	put("nvkernel.reads_per_req", (after[`nvk_syscalls_total{call="read"}`]-before[`nvk_syscalls_total{call="read"}`])/reqs, "count")
	put("nvkernel.rendezvous_us_mean", rvMean*1e6, "us")
	put("nvkernel.monitor_share", rvCount/reqs*rvMean*1e6/clientUS, "ratio")
	put("nvkernel.goroutines_per_group", lad.goroutines, "count")
	put("httpd.service_us_mean", svcMean*1e6, "us")
	put("httpd.wait_us", clientUS-svcMean*1e6, "us")
	put("harness.start_ms", lad.startMS, "ms")
	put("harness.stop_ms", lad.stopMS, "ms")
	put("reexpress.generate_us", generateTime(b.in.seed), "us")
	for name, v := range ladderDeltas(lad.rungs, lad.base) {
		put(name, v, "us")
	}
	for _, r := range []string{rungSimnet, rungGroupN1, rungGroupN2, rungFleet, rungMesh} {
		put("ladder."+strings.ReplaceAll(r, "-", "_")+"_us", lad.rungs[r], "us")
	}

	// The security path: this workload's own probes, or a side fleet's.
	sec, sb, sa := lt, before, after
	if !b.w.attack {
		if sec, sb, sa, err = securityStage(b.in); err != nil {
			return nil, err
		}
	}
	var detect, respawn, lag []float64
	for _, p := range sec.attack.probes {
		detect = append(detect, ms(p.detect))
		respawn = append(respawn, ms(p.recover-p.detect))
		lag = append(lag, ms(p.lag))
	}
	probes := float64(len(sec.attack.probes))
	killMean, _ := histMean(sb, sa, "nvk_alarm_kill_latency_seconds")
	expMean, _ := histMean(sb, sa, "fleet_exposure_window_seconds")
	put("fleet.detect_ms_p50", median(detect), "ms")
	put("fleet.respawn_ms_p50", median(respawn), "ms")
	put("fleet.exposure_ms_mean", expMean*1e3, "ms")
	put("fleet.failed_per_probe", float64(sec.sum().dropped)/probes, "count")
	put("fleet.dispatch_errors", float64(stop.dispatchErrors), "count")
	put("nvkernel.alarm_kill_us_mean", killMean*1e6, "us")
	put("loadgen.probe_lag_ms", mean(lag), "ms")

	// Mesh: this workload's own rotations, or a rotation stage's.
	rb, ra := before, after
	if t.kind != stackMesh {
		if rb, ra, err = rotationStage(b.in, rungTime(b.dur)); err != nil {
			return nil, err
		}
	}
	drain, _ := histMean(rb, ra, "mesh_rotation_drain_seconds")
	put("mesh.rotation_drain_ms_mean", drain*1e3, "ms")
	skew, shed, retries := 1.0, 0.0, 0.0
	if meshStats != nil {
		lo, hi := meshStats.Pools[0].Served, meshStats.Pools[0].Served
		for _, p := range meshStats.Pools {
			lo, hi = min(lo, p.Served), max(hi, p.Served)
		}
		skew = ratio(float64(hi), float64(lo))
		shed, retries = float64(meshStats.Shed), float64(meshStats.Retries)
	}
	put("mesh.pool_skew", skew, "ratio")
	put("mesh.shed", shed, "count")
	put("mesh.retries", retries, "count")

	okU := float64(su.ok())
	put("go.allocs_per_req", float64(mem[1].Mallocs-mem[0].Mallocs)/okU, "count")
	put("go.alloc_kib_per_req", float64(mem[1].TotalAlloc-mem[0].TotalAlloc)/1024/okU, "KiB")
	put("go.gc_per_kreq", float64(mem[1].NumGC-mem[0].NumGC)*1000/okU, "count")
	put("loadgen.latency_samples", float64(stw.lat.n), "count")
	p99, beyond, ok := su.wins[0].lat.percentile(99)
	if !ok {
		return nil, fmt.Errorf("run too short: the untraced slice's p99 has %d samples beyond it, need %d", beyond, minBeyond)
	}
	put("loadgen.latency_p99_us", float64(p99)/1e3, "us")
	put("trace.overhead_ratio", ratio(okU/lu.elapsed.Seconds(), float64(st.ok())/lt.elapsed.Seconds()), "ratio")

	path, err := tr.dump(filepath.Join("perfbench", "out"), fmt.Sprintf("trace-%s-%d.ndjson", b.w.name, b.in.seed))
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("# spans written to %s\n", path)
	printSelfTimes(os.Stdout, spans, tr.dropped())
	ladderLine := make([]string, 0, len(lad.rungs))
	for _, r := range []string{rungSimnet, rungGroupN1, rungGroupN2, rungFleet, rungMesh} {
		ladderLine = append(ladderLine, fmt.Sprintf("%s=%.2fus", r, lad.rungs[r]))
	}
	fmt.Printf("# ladder %s (fleet/mesh base %.2fus)\n", strings.Join(ladderLine, " "), lad.base)
	return &report{Correct: true, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// generateTime is the mean time of one reexpress.Generate call for the
// config-4 stack, over seeds derived from seed.
func generateTime(seed int64) float64 {
	t0 := time.Now()
	for i := 0; i < generateReps; i++ {
		_ = reexpress.Generate(splitmix(seed, seedSpec+uint64(i+1)*seedStride), 2, variationStack...)
	}
	return us(time.Since(t0)) / generateReps
}

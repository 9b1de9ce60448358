package main

import (
	"fmt"
	"runtime"
	"time"

	"nvariant/internal/harness"
	"nvariant/internal/httpd"
	"nvariant/internal/obs"
	"nvariant/internal/reexpress"
	"nvariant/internal/simnet"
	"nvariant/internal/vos"
)

// Ladder sizing: every rung serves one engine, uncontended.
const (
	rungMin        = 200 * time.Millisecond
	rungMax        = 800 * time.Millisecond
	rungWarm       = 32 // requests before timing starts
	startStopReps  = 3  // harness start/stop cycles timed on the group-n2 rung
	generateReps   = 64 // reexpress.Generate calls timed
	stageProbes    = 5  // probes of the security stage
	stageRotate    = 64 // mesh ticks between rotations in the rotation stage
	fleetDocsProxy = "/page3.html"
)

// rungTime returns how long each rung measures for a run of dur.
func rungTime(dur time.Duration) time.Duration {
	d := dur / 12
	if d < rungMin {
		d = rungMin
	}
	if d > rungMax {
		d = rungMax
	}
	return d
}

// fleetView returns the inputs a fleet can serve: fleet worlds hold
// only the default documents, so a workload with its own documents is
// replaced by requests for the largest default page.
func (in *inputs) fleetView() (*inputs, error) {
	if in.docs == nil {
		return in, nil
	}
	v := &inputs{seed: in.seed, uris: []string{fleetDocsProxy}}
	world, err := vos.NewWorld()
	if err != nil {
		return nil, err
	}
	exp, err := expectations(world, v.uris)
	if err != nil {
		return nil, err
	}
	v.reqs = [][]byte{httpd.AppendRequest(nil, fleetDocsProxy)}
	v.expect = []expectation{exp[fleetDocsProxy]}
	v.streams = [][]int{make([]int, streamLen)}
	return v, nil
}

// timeStream sends stream 0 of in sequentially through fetch for d
// after a warm-up and returns the mean request time in µs. A wrong
// answer or transport error fails the rung.
func timeStream(in *inputs, fetch func(req []byte) (int, int, error), d time.Duration) (float64, error) {
	stream := in.streams[0]
	var total time.Duration
	n := 0
	deadline := time.Time{}
	for i := 0; ; i++ {
		if i == rungWarm {
			deadline = time.Now().Add(d)
		}
		if i > rungWarm && time.Now().After(deadline) {
			break
		}
		u := stream[i%len(stream)]
		start := time.Now()
		code, bodyLen, err := fetch(in.reqs[u])
		el := time.Since(start)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", in.uris[u], err)
		}
		if e := in.expect[u]; code != e.code || bodyLen != e.bodyLen {
			return 0, fmt.Errorf("%s: got %d/%dB, want %d/%dB", in.uris[u], code, bodyLen, e.code, e.bodyLen)
		}
		if i >= rungWarm {
			total += el
			n++
		}
	}
	return float64(total.Nanoseconds()) / 1e3 / float64(n), nil
}

// echoServer is the simnet rung's server: it answers every request with
// a canned response of the length the real server would send.
type echoServer struct {
	ln   *simnet.Listener
	done chan struct{}
}

func startEcho(net *simnet.Network, port uint16, in *inputs) (*echoServer, error) {
	canned := map[string][]byte{}
	for i, uri := range in.uris {
		e := in.expect[i]
		canned[uri] = httpd.AppendResponse(nil, e.code, httpd.ContentTypeFor(uri), make([]byte, e.bodyLen))
	}
	ln, err := net.Listen(port)
	if err != nil {
		return nil, err
	}
	s := &echoServer{ln: ln, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			if req, err := conn.Recv(); err == nil && req != nil {
				if r, err := httpd.ParseRequestLine(req); err == nil {
					_ = conn.Send(canned[r.URI])
				}
				simnet.PutBuffer(req)
			}
			_ = conn.Close()
		}
	}()
	return s, nil
}

func (s *echoServer) stop() {
	_ = s.ln.Close()
	<-s.done
}

// ladderResult is the traced run's cost ladder.
type ladderResult struct {
	rungs      map[string]float64 // mean µs per request
	base       float64            // group-n2 on the fleet-servable stream
	dialUS     float64            // mean simnet Dial on the simnet rung
	goroutines float64            // goroutines a group-n2 start adds
	startMS    float64            // mean harness start
	stopMS     float64            // mean harness stop
}

// runLadder measures every rung the workload's stack contains over
// its own request stream, one engine, uncontended.
func runLadder(in *inputs, d time.Duration) (*ladderResult, error) {
	lr := &ladderResult{rungs: map[string]float64{}}

	// Rung 1: bare simnet with a canned-response listener.
	net := simnet.New(0)
	echo, err := startEcho(net, groupPort, in)
	if err != nil {
		return nil, err
	}
	// The rung's requests are traced one at a time so the Dial span can
	// be read back without keeping every span.
	tb := newTracer().buf()
	var dial int64
	dials := 0
	us, err := timeStream(in, func(req []byte) (int, int, error) {
		root := tb.begin(spanRequest, -1, 0)
		code, n, err := exchange(net, groupPort, req, tb, root, 0)
		if len(tb.spans) > 1 && tb.spans[1].name == spanDial {
			dial += tb.spans[1].end - tb.spans[1].start
			dials++
		}
		tb.spans = tb.spans[:0]
		return code, n, err
	}, d)
	echo.stop()
	if err != nil {
		return nil, fmt.Errorf("simnet rung: %w", err)
	}
	lr.rungs[rungSimnet] = us
	lr.dialUS = float64(dial) / 1e3 / float64(dials)

	// Rungs 2 and 3: config 1, then the workload's own config-4 group,
	// whose start and stop are also timed.
	if us, err = groupRung(in, harness.Config1Unmodified, nil, d); err != nil {
		return nil, fmt.Errorf("group-n1 rung: %w", err)
	}
	lr.rungs[rungGroupN1] = us
	spec := reexpress.Generate(splitmix(in.seed, seedSpec), 2, variationStack...)
	var start, stop time.Duration
	for i := 0; i < startStopReps; i++ {
		g0 := runtime.NumGoroutine()
		t0 := time.Now()
		t, err := startGroup(in, harness.Config4UIDVariation, spec, nil, nil)
		if err != nil {
			return nil, err
		}
		start += time.Since(t0)
		lr.goroutines = float64(runtime.NumGoroutine() - g0)
		if i == startStopReps-1 {
			us, err = timeStream(in, t.client().http.Fetch, d)
		}
		t1 := time.Now()
		_, serr := t.stop(nil)
		stop += time.Since(t1)
		if err != nil {
			return nil, fmt.Errorf("group-n2 rung: %w", err)
		}
		if serr != nil {
			return nil, serr
		}
	}
	lr.rungs[rungGroupN2] = us
	lr.startMS = float64(start.Microseconds()) / 1e3 / startStopReps
	lr.stopMS = float64(stop.Microseconds()) / 1e3 / startStopReps
	lr.base = us

	// Rungs 4 and 5: one pool of one group behind the fleet dispatcher,
	// then behind the mesh router.
	fv, err := in.fleetView()
	if err != nil {
		return nil, err
	}
	if fv != in {
		if lr.base, err = groupRung(fv, harness.Config4UIDVariation, spec, d); err != nil {
			return nil, fmt.Errorf("group-n2 rung on fleet documents: %w", err)
		}
	}
	ft, err := startFleet(splitmix(in.seed, seedFleet), 1, nil, nil)
	if err != nil {
		return nil, err
	}
	us, err = timeStream(fv, ft.client().http.Fetch, d)
	if _, serr := ft.stop(nil); err == nil {
		err = serr
	}
	if err != nil {
		return nil, fmt.Errorf("fleet rung: %w", err)
	}
	lr.rungs[rungFleet] = us
	mt, err := startMesh(splitmix(in.seed, seedFleet), 1, 1, 0, []string{"ladder"}, nil, nil)
	if err != nil {
		return nil, err
	}
	us, err = timeStream(fv, mt.sessions[0].Fetch, d)
	if _, serr := mt.stop(nil); err == nil {
		err = serr
	}
	if err != nil {
		return nil, fmt.Errorf("mesh rung: %w", err)
	}
	lr.rungs[rungMesh] = us
	return lr, nil
}

// groupRung times one group of configuration cfg over in.
func groupRung(in *inputs, cfg harness.Configuration, spec *reexpress.Spec, d time.Duration) (float64, error) {
	t, err := startGroup(in, cfg, spec, nil, nil)
	if err != nil {
		return 0, err
	}
	us, err := timeStream(in, t.client().http.Fetch, d)
	if _, serr := t.stop(nil); err == nil {
		err = serr
	}
	return us, err
}

// securityStage runs the security path on a side fleet of two groups —
// one benign engine and stageProbes scheduled probes — for workloads
// that send no probes of their own, with the same checks as
// fleet-attack.
func securityStage(in *inputs) (loadResult, scrape, scrape, error) {
	fv, err := in.fleetView()
	if err != nil {
		return loadResult{}, nil, nil, err
	}
	reg := obs.NewRegistry()
	t, err := startFleet(splitmix(in.seed, seedProbe), fleetGroups, reg, nil)
	if err != nil {
		return loadResult{}, nil, nil, err
	}
	schedule := probeSchedule(splitmix(in.seed, seedProbe), stageProbes*probePeriod)
	before := takeScrape(reg)
	res := runLoad(t, fv, 1, 0, time.Duration(len(schedule))*probePeriod, 1, schedule, nil, nil)
	after := takeScrape(reg)
	if err := t.awaitFull(nil); err != nil {
		return res, nil, nil, err
	}
	rep, err := t.stop(nil)
	if err != nil {
		return res, nil, nil, err
	}
	if err := stageChecks(res); err != nil {
		return res, nil, nil, err
	}
	if err := checkAlarms(t, rep, len(res.attack.probes)); err != nil {
		return res, nil, nil, checkf("security stage: %v", err)
	}
	return res, before, after, nil
}

// stageChecks applies the answer and attack checks to the security
// stage's load.
func stageChecks(res loadResult) error {
	s, a := res.sum(), res.attack
	switch {
	case s.wrong > 0:
		return checkf("security stage: %d wrong answers, first %s", s.wrong, s.firstBad)
	case a.leaks > 0:
		return checkf("security stage: %d responses carried the secret", a.leaks)
	case a.bad != "":
		return checkf("security stage: attack trigger %s", a.bad)
	case a.err != nil:
		return checkf("security stage: %v", a.err)
	case len(a.probes) == 0:
		return checkf("security stage: no probe completed")
	}
	return nil
}

// rotationStage runs a one-pool, two-group mesh rotating every
// stageRotate ticks under one engine and returns the mesh's scrapes.
func rotationStage(in *inputs, d time.Duration) (scrape, scrape, error) {
	fv, err := in.fleetView()
	if err != nil {
		return nil, nil, err
	}
	reg := obs.NewRegistry()
	t, err := startMesh(splitmix(in.seed, seedFleet), 1, fleetGroups, stageRotate, []string{"ladder"}, reg, nil)
	if err != nil {
		return nil, nil, err
	}
	before := takeScrape(reg)
	_, err = timeStream(fv, t.sessions[0].Fetch, d)
	after := takeScrape(reg)
	if err == nil {
		err = t.awaitFull(nil)
	}
	rep, serr := t.stop(nil)
	if err == nil {
		err = serr
	}
	if err == nil {
		err = checkAlarms(t, rep, 0)
	}
	return before, after, err
}

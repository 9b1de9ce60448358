package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"nvariant/internal/fleet"
	"nvariant/internal/harness"
	"nvariant/internal/httpd"
	"nvariant/internal/mesh"
	"nvariant/internal/nvkernel"
	"nvariant/internal/obs"
	"nvariant/internal/reexpress"
	"nvariant/internal/simnet"
	"nvariant/internal/vos"
	"nvariant/internal/webbench"
)

// stackKind is the topology a workload drives.
type stackKind int

const (
	stackGroup stackKind = iota + 1 // one config-4 group on its own simnet
	stackFleet                      // fleet dispatcher over config-4 groups
	stackMesh                       // mesh router over pools of fleets
)

// workload is one traffic mix and the stack it runs on.
type workload struct {
	name   string
	stack  stackKind
	large  bool // serve largeDocs documents written into the world
	attack bool // an open-loop attacker probes the stack
	procs  int  // GOMAXPROCS of the run; 0 leaves the default
}

// A lone group runs its variants in lockstep: every rendezvous waits for
// all of them, so a goroutine held on a descheduled CPU stalls the work
// queued on the other, and a second CPU buys no parallelism. On the
// shared two-vCPU reference machine, interleaved runs at GOMAXPROCS 2
// and 1 spread 0.22 and 0.10 in throughput on group-small (0.12 and
// 0.07 on group-large), and 1 served 23–28% more requests per second,
// so the group workloads run at 1. The fleet and mesh workloads keep
// the default: their groups do run in parallel, and at 1 fleet-attack
// served ~40% fewer requests.
var workloads = []workload{
	{name: "group-small", stack: stackGroup, procs: 1},
	{name: "group-large", stack: stackGroup, large: true, procs: 1},
	{name: "mesh-zipf", stack: stackMesh},
	{name: "fleet-attack", stack: stackFleet, attack: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Sizing of the stacks and traffic (see README.md for the reasons).
const (
	groupPort       uint16 = 8080
	fleetGroups            = 2
	meshPools              = 2
	meshKeys               = 64
	meshRotate             = 4096 // mesh ticks between rotations
	smallDocs              = 4    // group-small draws over the smallest default documents
	largeDocs              = 4
	largeDocSize           = 256 << 10
	streamLen              = 1 << 14 // requests generated per engine, replayed cyclically
	probePeriod            = 100 * time.Millisecond
	missingShare           = 0.05 // mesh-zipf share of requests for missing pages
	secretShare            = 0.05 // mesh-zipf share of requests for the 403 secret page
	secretURI              = "/private/secret.html"
	awaitTimeout           = 10 * time.Second
	firstReplyTries        = 200
)

// variationStack is the config-4 layer stack: uid + address-partition +
// unshared-files, the paper's full deployment.
var variationStack = []reexpress.LayerKind{
	reexpress.LayerUID, reexpress.LayerAddressPartition, reexpress.LayerUnsharedFiles,
}

// engineCount is the number of closed-loop benign clients: two, or one
// per CPU on a smaller machine. On the two-CPU reference machine two
// engines halved the run-to-run spread of every metric against one,
// except on the per-byte path: group-large gains no throughput from a
// second engine, doubles its latency and peak memory, and spreads
// wider, so it runs one.
func engineCount(w workload) int {
	if w.large {
		return 1
	}
	return min(2, runtime.NumCPU())
}

// splitmix derives independent sub-seeds from the workload seed.
func splitmix(seed int64, stream uint64) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*(stream+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Sub-seed streams.
const (
	seedSpec = iota
	seedFleet
	seedDocs
	seedProbe
	seedKeys
	seedEngine // + engine index
)

// seedStride separates derived seed families (engines, key streams,
// regenerated specs) so they never share a splitmix stream.
const seedStride = 1 << 20

// inputs is everything generated from the seed: the program sees only
// these.
type inputs struct {
	uris    []string          // request universe
	reqs    [][]byte          // prebuilt GET payload per uri
	expect  []expectation     // correct response per uri
	streams [][]int           // per engine: uri index of each request
	keys    []string          // mesh session keys
	keyIdx  [][]int           // per engine: session of each request (mesh)
	docs    map[string][]byte // documents written into group worlds
	probes  []time.Duration   // attacker send offsets from phase start
	seed    int64
	digest  uint64
}

// generate builds the workload's inputs from seed.
func generate(w workload, seed int64, seconds int) (*inputs, error) {
	in := &inputs{seed: seed}
	world, err := vos.NewWorld()
	if err != nil {
		return nil, err
	}
	d := newDigest()
	d.add(w.name)
	d.addInt(seed)

	var weights func(r *rand.Rand) int
	switch {
	case w.large:
		in.docs = largeDocuments(splitmix(seed, seedDocs))
		names := make([]string, 0, len(in.docs))
		for uri := range in.docs {
			names = append(names, uri)
		}
		sort.Strings(names)
		for _, uri := range names {
			if err := writeDoc(world, uri, in.docs[uri]); err != nil {
				return nil, err
			}
			d.add(uri, string(in.docs[uri]))
		}
		in.uris = names
	case w.stack == stackGroup:
		// The smallest default documents: fixed per-request cost.
		all, err := expectations(world, webbench.DefaultMix())
		if err != nil {
			return nil, err
		}
		uris := webbench.DefaultMix()
		sort.SliceStable(uris, func(i, j int) bool { return all[uris[i]].bodyLen < all[uris[j]].bodyLen })
		in.uris = uris[:smallDocs]
	default:
		in.uris = webbench.DefaultMix()
	}
	if w.stack == stackMesh {
		// ~5% missing pages (404) and ~5% the secret page (403, which
		// also appends to the error log) beside the default mix.
		base := len(in.uris)
		const missing = 4
		for i := 0; i < missing; i++ {
			in.uris = append(in.uris, fmt.Sprintf("/missing-%d.html", i))
		}
		in.uris = append(in.uris, secretURI)
		weights = func(r *rand.Rand) int {
			switch x := r.Float64(); {
			case x < secretShare:
				return len(in.uris) - 1
			case x < secretShare+missingShare:
				return base + r.Intn(missing)
			default:
				return r.Intn(base)
			}
		}
	} else {
		n := len(in.uris)
		weights = func(r *rand.Rand) int { return r.Intn(n) }
	}

	exp, err := expectations(world, in.uris)
	if err != nil {
		return nil, err
	}
	for _, uri := range in.uris {
		in.reqs = append(in.reqs, httpd.AppendRequest(nil, uri))
		in.expect = append(in.expect, exp[uri])
	}

	engines := engineCount(w)
	for e := 0; e < engines; e++ {
		r := rand.New(rand.NewSource(splitmix(seed, seedEngine+uint64(e))))
		s := make([]int, streamLen)
		for i := range s {
			s[i] = weights(r)
			d.add(in.uris[s[i]])
		}
		in.streams = append(in.streams, s)
	}
	if w.stack == stackMesh {
		kr := rand.New(rand.NewSource(splitmix(seed, seedKeys)))
		for i := 0; i < meshKeys; i++ {
			in.keys = append(in.keys, fmt.Sprintf("user-%016x", kr.Uint64()))
			d.add(in.keys[i])
		}
		for e := 0; e < engines; e++ {
			z := newZipf(splitmix(seed, seedKeys+uint64(1+e)*seedStride), meshKeys)
			ks := make([]int, streamLen)
			for i := range ks {
				ks[i] = int(z.Uint64())
				d.addInt(int64(ks[i]))
			}
			in.keyIdx = append(in.keyIdx, ks)
		}
	}
	if w.attack {
		in.probes = probeSchedule(splitmix(seed, seedProbe), time.Duration(seconds)*time.Second+time.Second)
		for _, p := range in.probes {
			d.addInt(int64(p))
		}
	}
	d.addInt(splitmix(seed, seedSpec))
	d.addInt(splitmix(seed, seedFleet))
	in.digest = d.sum()
	return in, nil
}

// probeSchedule is a fixed-period schedule with a seeded phase covering
// span.
func probeSchedule(seed int64, span time.Duration) []time.Duration {
	phase := time.Duration(rand.New(rand.NewSource(seed)).Int63n(int64(probePeriod)))
	var out []time.Duration
	for t := phase; t < span; t += probePeriod {
		out = append(out, t)
	}
	return out
}

// largeDocuments returns largeDocs seeded documents of largeDocSize.
func largeDocuments(seed int64) map[string][]byte {
	r := rand.New(rand.NewSource(seed))
	docs := map[string][]byte{}
	for i := 0; i < largeDocs; i++ {
		b := make([]byte, largeDocSize)
		for j := range b {
			b[j] = 'a' + byte(r.Intn(26))
		}
		docs[fmt.Sprintf("/large-%d.txt", i)] = b
	}
	return docs
}

func writeDoc(w *vos.World, uri string, body []byte) error {
	return w.FS.WriteFile("/var/www"+uri, body, 0644, vos.CredFor(vos.Root, 0))
}

// newWorld builds a world holding the workload's documents.
func (in *inputs) newWorld() (*vos.World, error) {
	w, err := vos.NewWorld()
	if err != nil {
		return nil, err
	}
	for uri, body := range in.docs {
		if err := writeDoc(w, uri, body); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// serverOptions is the httpd configuration of every stack: synthetic
// work and service time off.
func serverOptions(reg *obs.Registry) httpd.Options {
	o := httpd.DefaultOptions()
	o.WorkFactor = 0
	o.ServiceTime = 0
	if reg != nil {
		o.Metrics = httpd.NewMetrics(reg)
	}
	return o
}

// target is one running stack under test.
type target struct {
	kind     stackKind
	net      *simnet.Network
	port     uint16
	group    *harness.Handle
	fleet    *fleet.Fleet
	mesh     *mesh.Mesh
	sessions []*mesh.Session
	size     int // groups per fleet pool
}

// startGroup starts one group of the given configuration on a fresh
// world and network. spec is nil for single-variant configurations.
func startGroup(in *inputs, cfg harness.Configuration, spec *reexpress.Spec, reg *obs.Registry, tr *spanBuf) (*target, error) {
	world, err := in.newWorld()
	if err != nil {
		return nil, err
	}
	net := simnet.New(0)
	var kopts []nvkernel.Option
	if reg != nil {
		net.SetMetrics(simnet.NewMetrics(reg))
		kopts = append(kopts, nvkernel.WithMetrics(nvkernel.NewMetrics(reg)))
	}
	sp := tr.begin(spanHarnessStart, -1, 0)
	h, err := harness.StartSpecOn(world, net, harness.GroupSpec{
		Config: cfg, Server: serverOptions(reg), Port: groupPort, Diversity: spec,
	}, kopts...)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("start group: %w", err)
	}
	return &target{kind: stackGroup, net: net, port: groupPort, group: h}, nil
}

// startFleet starts a fleet of the given number of config-4 groups.
func startFleet(seed int64, groups int, reg *obs.Registry, tr *spanBuf) (*target, error) {
	sp := tr.begin(spanFleetNew, -1, 0)
	f, err := fleet.New(fleet.Options{
		Groups: groups, Config: harness.Config4UIDVariation, Stack: variationStack,
		Server: serverOptions(nil), Seed: seed, Obs: reg,
	})
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("start fleet: %w", err)
	}
	return &target{kind: stackFleet, net: f.Net(), port: f.Port(), fleet: f, size: groups}, nil
}

// startMesh starts a mesh of pools × groups with hash routing and one
// session per key.
func startMesh(seed int64, pools, groups int, rotate uint64, keys []string, reg *obs.Registry, tr *spanBuf) (*target, error) {
	sp := tr.begin(spanMeshNew, -1, 0)
	m, err := mesh.New(mesh.Options{
		Pools: pools, Policy: mesh.HashRouting, RotateEvery: rotate, Seed: seed, Obs: reg,
		Fleet: fleet.Options{
			Groups: groups, Config: harness.Config4UIDVariation, Stack: variationStack,
			Server: serverOptions(nil),
		},
	})
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("start mesh: %w", err)
	}
	t := &target{kind: stackMesh, mesh: m, size: groups}
	for _, k := range keys {
		t.sessions = append(t.sessions, m.Session(k))
	}
	return t, nil
}

// build starts the workload's own stack.
func build(w workload, in *inputs, reg *obs.Registry, tr *spanBuf) (*target, error) {
	switch w.stack {
	case stackGroup:
		spec := reexpress.Generate(splitmix(in.seed, seedSpec), 2, variationStack...)
		return startGroup(in, harness.Config4UIDVariation, spec, reg, tr)
	case stackFleet:
		return startFleet(splitmix(in.seed, seedFleet), fleetGroups, reg, tr)
	default:
		return startMesh(splitmix(in.seed, seedFleet), meshPools, fleetGroups, meshRotate, in.keys, reg, tr)
	}
}

// client is one engine's handle on a target.
type client struct {
	t    *target
	http *httpd.Client
}

func (t *target) client() client {
	c := client{t: t}
	if t.kind != stackMesh {
		c.http = httpd.NewClient(t.net, t.port)
	}
	return c
}

// fetch sends one request; key selects the mesh session.
func (c client) fetch(req []byte, key int) (int, int, error) {
	if c.http != nil {
		return c.http.Fetch(req)
	}
	return c.t.sessions[key].Fetch(req)
}

// firstReply waits for the first correct response to uri 0 of the
// stream — the end of set-up.
func firstReply(t *target, in *inputs) error {
	c := t.client()
	u := in.streams[0][0]
	var last error
	for i := 0; i < firstReplyTries; i++ {
		key := 0
		if in.keyIdx != nil {
			key = in.keyIdx[0][0]
		}
		code, n, err := c.fetch(in.reqs[u], key)
		if err == nil {
			if e := in.expect[u]; code != e.code || n != e.bodyLen {
				return fmt.Errorf("first reply to %s: got %d/%dB, want %d/%dB", in.uris[u], code, n, e.code, e.bodyLen)
			}
			return nil
		}
		last = err
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("no first reply: %w", last)
}

// awaitFull waits until every pool is back at its full size (a
// rotation or replacement may be in flight when load stops). A lone
// group is full while it runs.
func (t *target) awaitFull(tr *spanBuf) error {
	sp := tr.begin(spanAwait, -1, 0)
	defer tr.end(sp)
	switch t.kind {
	case stackGroup:
		select {
		case <-t.group.Done():
			return fmt.Errorf("group exited under load")
		default:
			return nil
		}
	case stackFleet:
		return t.fleet.Await(func(s fleet.Stats) bool { return len(s.Healthy) >= t.size }, awaitTimeout)
	default:
		return t.mesh.Await(func(s mesh.Stats) bool {
			for _, p := range s.Pools {
				if len(p.Fleet.Healthy) < t.size {
					return false
				}
			}
			return true
		}, awaitTimeout)
	}
}

// stopReport is what a stack saw over its life.
type stopReport struct {
	alarms, detections int
	dispatchErrors     int64
}

// stop tears the target down and reports its alarms and detections.
func (t *target) stop(tr *spanBuf) (stopReport, error) {
	var r stopReport
	switch t.kind {
	case stackGroup:
		sp := tr.begin(spanHarnessStop, -1, 0)
		res, err := t.group.Stop()
		tr.end(sp)
		if err != nil {
			return r, fmt.Errorf("stop group: %w", err)
		}
		if res.Alarm != nil {
			r.alarms, r.detections = 1, 1
		}
	case stackFleet:
		sp := tr.begin(spanFleetStop, -1, 0)
		s, err := t.fleet.Stop()
		tr.end(sp)
		if err != nil {
			return r, fmt.Errorf("stop fleet: %w", err)
		}
		r.alarms, r.detections = int(t.fleet.AlarmCount()), s.Detections
		r.dispatchErrors = s.DispatchErrors
	case stackMesh:
		sp := tr.begin(spanMeshStop, -1, 0)
		s, err := t.mesh.Stop()
		tr.end(sp)
		if err != nil {
			return r, fmt.Errorf("stop mesh: %w", err)
		}
		for i, p := range s.Pools {
			r.detections += p.Fleet.Detections
			r.dispatchErrors += p.Fleet.DispatchErrors
			r.alarms += int(t.mesh.Pool(i).AlarmCount())
		}
	}
	return r, nil
}

// Package campaign is the one campaign engine: it runs seeded cells
// that cross deployment topology (a bare group, a fleet, or a mesh of
// P pools) with fault plan, attack, group size N, worker lanes W,
// quorum K, variation stack and rotation, and emits one deterministic
// JSON matrix of detection, transparency, availability, recovery and
// exposure results with one contract check.
//
// Byte-identical replay is a hard requirement (a finding must be a
// replayable regression test), so the matrix records only values that
// are functions of the seed: outcome counts of the serialized benign
// phase, detection and leak booleans, settled fleet and mesh counters,
// and exposure windows in virtual ticks. Wall-clock quantities never
// enter the output. Two rules keep it so:
//
//   - the attacker never adapts to the deployment under test: its
//     payloads and trigger rounds are the same whatever the stack, and
//     whatever the cell expects;
//   - a group is handed to the benign phase only after it has finished
//     its readiness connection (harness.StartSpecOn), so a crash
//     trigger counting syscalls across W > 1 lanes strikes the same
//     request on every run.
package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"nvariant/internal/attack"
	"nvariant/internal/chaos"
	"nvariant/internal/fleet"
	"nvariant/internal/harness"
	"nvariant/internal/httpd"
	"nvariant/internal/mesh"
	"nvariant/internal/nvkernel"
	"nvariant/internal/obs"
	"nvariant/internal/reexpress"
	"nvariant/internal/simnet"
	"nvariant/internal/vos"
	"nvariant/internal/word"
)

// Deployment topologies.
const (
	// Group is one N-variant group behind its own port.
	Group = "group"
	// Fleet is a pool of groups behind the fleet dispatcher.
	Fleet = "fleet"
	// Mesh is P fleets behind the mesh router, with retrying sessions
	// and optional rotation.
	Mesh = "mesh"
)

// Variation-stack names.
const (
	// StackFull is the paper's §4 deployment: UID variation plus
	// address partitioning plus unshared files (configuration 4).
	StackFull = "uid+addr+files"
	// StackBaseline is the diversity baseline without data
	// reexpression (configuration 3): it shows what the UID layer
	// buys — forged-UID attacks leak here.
	StackBaseline = "addr+files"
)

// Fixed engine parameters. They are constants, not options, so every
// preset measures the same attacker and the same recovery machinery.
const (
	// triggerBudget bounds first-use trigger probes per corpus payload
	// (scaled by W: the corrupted lane is hit by accept contention).
	triggerBudget = 16
	// triggerRounds is how often a corpus attack resends its payloads
	// and trigger probes — to outlast a lossy network, and the same in
	// every cell.
	triggerRounds = 4
	// quorumTimeout is the rendezvous deadline of quorum cells: short
	// enough that chaos.QuorumStall reliably blows it.
	quorumTimeout = 100 * time.Millisecond
	// sessions is the mesh cells' benign session-key count; requests
	// round-robin across them so dispatch exercises the router.
	sessions = 8
	// retryBudget is the mesh sessions' per-dispatch retry budget.
	retryBudget = 6
	// retryBackoff is the base retry backoff in mesh ticks.
	retryBackoff = mesh.DefaultRetryBackoff
	// rotateEvery is the rotation cadence in mesh ticks of
	// rotation-on cells.
	rotateEvery = 6
	// poolGroups is each pool's group count: one spare, so every pool
	// keeps serving through a restart, a rotation or a quarantine.
	poolGroups = 2
	// strikes is the ForgeUID strike count of a pooled cell.
	strikes = 2
	// settleTimeout bounds every wait for a fleet or mesh to settle.
	settleTimeout = 30 * time.Second
)

// NoAttack is the benign scenario: a cell with no attacker, measuring
// fault transparency and the false-alarm side.
func NoAttack() attack.Scenario { return attack.Scenario{Name: "none"} }

// ForgeUID is the direct strike: forged-UID overwrites sent straight
// to one group — a pooled cell's victim is the oldest group of the
// pool the attacker's key routes to — each redelivered with trigger
// probes until the victim dies. Corruption stays confined to one
// deterministic victim, so settled detection counts replay.
func ForgeUID() attack.Scenario { return attack.Scenario{Name: "forge-uid", ExpectDetect: true} }

// Spec is one cell to run: one value per axis.
type Spec struct {
	// Topology is Group, Fleet or Mesh.
	Topology string
	// Attack is a corpus scenario (group cells), ForgeUID, or NoAttack.
	Attack attack.Scenario
	// Fault is the fault plan injected while the cell runs.
	Fault chaos.Plan
	// Stack is StackFull or StackBaseline (pooled cells run StackFull).
	Stack string
	// N, Workers and K size each group: variants, prefork worker lanes,
	// and the quorum (0 = unanimous).
	N, Workers, K int
	// Pools is the pool count of a pooled cell (1 for a fleet).
	Pools int
	// Rotation turns on the mesh's moving-target rotation.
	Rotation bool
	// Requests is the serialized benign-request count.
	Requests int
}

// Config is one campaign: the cells to run, in order, from one seed.
type Config struct {
	// Seed drives every decision in the campaign; the same seed
	// reproduces byte-identical output.
	Seed int64
	// Cells lists the cells to run.
	Cells []Spec
	// ByteSweep lists the group sizes whose generated masks the
	// word-level brute force sweeps, after the paper's published pair;
	// empty skips the byte sweeps.
	ByteSweep []int
	// Obs, when set, instruments every cell's kernel, network, server,
	// fleet and mesh on the registry. Metrics record wall-clock data
	// outside the matrix: the JSON is byte-identical with and without.
	Obs *obs.Registry
}

// Cell is one matrix entry. Fields that do not apply to a topology
// stay zero and are omitted from the JSON.
type Cell struct {
	Topology string `json:"topology"`
	Attack   string `json:"attack"`
	Fault    string `json:"fault"`
	Stack    string `json:"stack"`
	N        int    `json:"n"`
	Workers  int    `json:"workers"`
	K        int    `json:"k,omitempty"`
	Pools    int    `json:"pools,omitempty"`
	Rotation bool   `json:"rotation,omitempty"`
	Requests int    `json:"requests"`

	// ExpectDetect: the attack must be detected — a corpus attack that
	// reaches a correctly deployed UID stack, or the divergence probe
	// against a degraded quorum group.
	ExpectDetect bool `json:"expect_detect"`
	// ExpectFaultAlarm: the fault itself must alarm (crash-class plans;
	// quorum-lost for a quorum group with no spare variant).
	ExpectFaultAlarm bool `json:"expect_fault_alarm,omitempty"`
	// ExpectSurvive: a quorum group with a spare variant must evict the
	// faulted one and keep serving.
	ExpectSurvive bool `json:"expect_survive,omitempty"`

	// Serialized benign phase. Mesh errors are also classified through
	// the typed dispatch taxonomy (quarantine windows and quorum-lost
	// kills count in BenignErrs and in their own bucket).
	BenignOK          int     `json:"benign_ok"`
	BenignErrs        int     `json:"benign_errs"`
	BenignShed        int     `json:"benign_shed,omitempty"`
	BenignQuarantines int     `json:"benign_quarantine_errs,omitempty"`
	BenignQuorumKills int     `json:"benign_quorum_kill_errs,omitempty"`
	Availability      float64 `json:"availability"`

	// Mesh retry, rotation and restart machinery.
	Retries          uint64 `json:"retries,omitempty"`
	Reroutes         uint64 `json:"reroutes,omitempty"`
	BackoffTicks     uint64 `json:"backoff_ticks,omitempty"`
	Rotations        uint64 `json:"rotations,omitempty"`
	RotationsSkipped uint64 `json:"rotations_skipped,omitempty"`
	Restarts         int    `json:"restarts,omitempty"`

	// Settled fleet counters, summed over pools.
	Spawned  int `json:"spawned,omitempty"`
	Replaced int `json:"replaced,omitempty"`

	// Quorum outcomes: Evictions is the group's eviction record (or the
	// pools' eviction count); Survived is full availability across the
	// fault with exactly one eviction.
	Evictions     int    `json:"evictions,omitempty"`
	EvictedKind   string `json:"evicted_kind,omitempty"`
	Survived      bool   `json:"survived,omitempty"`
	Respawned     int    `json:"respawned,omitempty"`
	DegradedEnd   int    `json:"degraded_end,omitempty"`
	MissedRespawn bool   `json:"missed_respawn,omitempty"`

	// Exposure windows: each retired group's teardown VTime in virtual
	// ticks — the rendezvous events one mask set lived through.
	ExposureSamples int    `json:"exposure_samples,omitempty"`
	ExposureP50     uint32 `json:"exposure_p50_vticks,omitempty"`
	ExposureP99     uint32 `json:"exposure_p99_vticks,omitempty"`

	// Attack outcomes. A group cell records its alarm; a pooled cell
	// counts strikes and the detections its pools settled on.
	Detected    bool   `json:"detected,omitempty"`
	AlarmReason string `json:"alarm_reason,omitempty"`
	Probes      int    `json:"probes,omitempty"`
	Detections  int    `json:"detections,omitempty"`
	Leaked      bool   `json:"leaked"`

	MissedDetection bool `json:"missed_detection"`
	FalseAlarm      bool `json:"false_alarm"`
}

// ByteSweepRow is one word-level exhaustive brute-force result.
type ByteSweepRow struct {
	Name      string `json:"name"`
	N         int    `json:"n"`
	Trials    int    `json:"trials"`
	Detected  int    `json:"detected"`
	Corrupted int    `json:"corrupted"`
	Harmless  int    `json:"harmless"`
}

// Result is the campaign's full matrix. Marshalling it is
// byte-identical across runs with the same Config.
type Result struct {
	Seed       int64          `json:"seed"`
	Cells      []Cell         `json:"cells"`
	ByteSweeps []ByteSweepRow `json:"byte_sweeps,omitempty"`
	Summary    Summary        `json:"summary"`
}

// JSON renders the matrix deterministically, with a trailing newline.
func (r *Result) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// benignMix is the serialized benign-phase request mix.
var benignMix = []string{"/index.html", "/page1.html", "/styles.css"}

// Run executes the campaign and returns the matrix.
func Run(cfg Config) (*Result, error) {
	for _, s := range cfg.Cells {
		if err := s.validate(); err != nil {
			return nil, fmt.Errorf("campaign: cell %s: %w", s.newCell().id(), err)
		}
	}
	res := &Result{Seed: cfg.Seed}
	for _, s := range cfg.Cells {
		run := runPooled
		if s.Topology == Group {
			run = runGroup
		}
		cell, err := run(cfg, s, s.seed(cfg.Seed))
		if err != nil {
			return nil, fmt.Errorf("campaign: cell %s: %w", s.newCell().id(), err)
		}
		res.Cells = append(res.Cells, cell)
	}
	if len(cfg.ByteSweep) > 0 {
		rows, err := runByteSweeps(cfg)
		if err != nil {
			return nil, err
		}
		res.ByteSweeps = rows
	}
	res.Summary = summarize(res)
	return res, nil
}

// validate rejects cells the engine cannot replay or cannot run.
func (s Spec) validate() error {
	switch {
	case s.Topology != Group && s.Topology != Fleet && s.Topology != Mesh:
		return fmt.Errorf("unknown topology %q", s.Topology)
	case s.Topology != Group && s.Stack != StackFull:
		return fmt.Errorf("pooled cells run the %s stack, not %q", StackFull, s.Stack)
	case s.Topology != Group && s.Attack.Build != nil:
		return fmt.Errorf("corpus scenario %q runs against group cells only", s.Attack.Name)
	case s.Topology != Group && s.K == 0 && s.Fault.Kernel != nil && s.Fault.Kernel.CrashAfter > 0:
		// A crash trigger counts syscalls across the whole pool, where
		// replacement startups interleave with serving — the trigger
		// point would not replay. With a quorum the group survives the
		// crash on its live variants, so the pool stays serialized.
		return fmt.Errorf("kernel crash plan %q cannot replay across a pool without a quorum", s.Fault.Name)
	}
	return nil
}

// seed derives the cell's seed from the campaign seed and the cell's
// label tuple (see chaos.CellSeed). Each kind of cell keeps its own
// tuple, so a cell replays exactly whichever campaign it runs in.
func (s Spec) seed(campaign int64) int64 {
	switch {
	case s.Topology == Mesh:
		v := chaos.CellSeed(campaign, "meshchaos", fmt.Sprint(s.Pools), fmt.Sprint(s.Rotation), s.Fault.Name, s.Attack.Name)
		if v == 0 {
			v = 1 // mesh.Options reads Seed 0 as "use the default"
		}
		return v
	case s.Topology == Fleet && s.K > 0:
		return chaos.CellSeed(campaign, "quorum-fleet", s.Fault.Name)
	case s.Topology == Fleet:
		return chaos.CellSeed(campaign, "fleet", s.Fault.Name)
	case s.K > 0:
		scenario := "quorum-lost"
		if s.N > s.K {
			scenario = "survive"
		}
		return chaos.CellSeed(campaign, "quorum", scenario, s.Fault.Name, fmt.Sprint(s.N))
	default:
		return chaos.CellSeed(campaign, "group", s.Attack.Name, s.Fault.Name, s.Stack, fmt.Sprint(s.N), fmt.Sprint(s.Workers))
	}
}

// newCell fills a cell's identity and expectations.
func (s Spec) newCell() Cell {
	c := Cell{
		Topology: s.Topology, Attack: s.Attack.Name, Fault: s.Fault.Name, Stack: s.Stack,
		N: s.N, Workers: s.Workers, K: s.K, Rotation: s.Rotation, Requests: s.Requests,
	}
	if s.Topology != Group {
		c.Pools = s.Pools
	}
	switch {
	case s.Topology == Group && s.K > 0:
		c.ExpectSurvive = s.N > s.K
		c.ExpectDetect = c.ExpectSurvive && s.Attack.Name == ForgeUID().Name
		c.ExpectFaultAlarm = !c.ExpectSurvive
	case s.Topology == Group:
		// Attack detection is only demanded where the attack reaches
		// the group: under a crash-class plan the monitor kills the
		// group during the benign phase, so that alarm certifies
		// crash-and-drain (ExpectFaultAlarm), not the attack.
		c.ExpectDetect = s.Attack.ExpectDetect && s.Stack == StackFull && s.Fault.Transparent
		c.ExpectFaultAlarm = !s.Fault.Transparent
	default:
		// A pooled strike is detected whatever the plan: its victim is
		// struck directly, after the benign phase.
		c.ExpectDetect = s.Attack.ExpectDetect
	}
	return c
}

// kernelOptions are the fault hook and quorum deadline of one group.
func (s Spec) kernelOptions(seed int64) []nvkernel.Option {
	var kopts []nvkernel.Option
	if s.Fault.Kernel != nil {
		kopts = append(kopts, nvkernel.WithFaultHook(s.Fault.Kernel.Hook(seed+2)))
	}
	if s.K > 0 {
		kopts = append(kopts, nvkernel.WithTimeout(quorumTimeout))
	}
	return kopts
}

// groupSpec assembles the harness spec of a group cell.
func (s Spec) groupSpec(seed int64, kopts []nvkernel.Option) (harness.GroupSpec, error) {
	gs := harness.GroupSpec{Server: httpd.DefaultOptions(), Workers: s.Workers, Quorum: s.K, Kernel: kopts}
	switch s.Stack {
	case StackFull:
		gs.Config = harness.Config4UIDVariation
		gs.Diversity = reexpress.Generate(seed, s.N,
			reexpress.LayerUID, reexpress.LayerAddressPartition, reexpress.LayerUnsharedFiles)
	case StackBaseline:
		gs.Config = harness.Config3AddressSpace
		gs.Diversity = reexpress.UncheckedSpec(s.N,
			reexpress.AddressPartitionLayer(s.N),
			reexpress.UnsharedFilesLayer(reexpress.DefaultUnsharedPaths...))
	default:
		return gs, fmt.Errorf("unknown stack %q", s.Stack)
	}
	return gs, nil
}

// runGroup runs one cell against a bare group.
func runGroup(cfg Config, s Spec, seed int64) (Cell, error) {
	cell := s.newCell()
	world, err := vos.NewWorld()
	if err != nil {
		return cell, err
	}
	net := simnet.New(0)
	if cfg.Obs != nil {
		net.SetMetrics(simnet.NewMetrics(cfg.Obs))
	}
	if s.Fault.Net != nil {
		net.SetFaultInjector(s.Fault.Net.Injector(seed + 1))
	}
	kopts := s.kernelOptions(seed)
	if cfg.Obs != nil {
		kopts = append(kopts, nvkernel.WithMetrics(nvkernel.NewMetrics(cfg.Obs)))
	}
	gs, err := s.groupSpec(seed+3, kopts)
	if err != nil {
		return cell, err
	}
	if cfg.Obs != nil {
		gs.Server.Metrics = httpd.NewMetrics(cfg.Obs)
	}
	h, err := harness.StartSpecOn(world, net, gs)
	if err != nil {
		return cell, err
	}
	client := h.Client()

	// Under a crash plan the group may die mid-phase; the remaining
	// requests fail deterministically (refused dials). Restart plans
	// act as none here: restarts are a pool fault.
	if err := benign(&cell, s, func(_ int, uri string) (int, error) {
		code, _, err := client.Get(uri)
		return code, err
	}, nil, nil); err != nil {
		return cell, err
	}

	switch {
	case s.Attack.Build != nil:
		cell.Leaked = driveAttack(client, s.Attack, rand.New(rand.NewSource(seed+4)), s.Workers)
	case s.Attack.Name == ForgeUID().Name:
		var detected bool
		// A lone group's port is never reused: a refusal is the kill.
		detected, cell.Leaked = strike(client, attack.ForgeUIDPayload(vos.Root), func() bool { return false })
		cell.MissedDetection = !detected
	}

	res, err := h.Stop()
	if err != nil {
		return cell, err
	}
	if res.Alarm != nil {
		cell.Detected = true
		cell.AlarmReason = res.Alarm.Reason.String()
	}
	cell.Evictions = len(res.Evictions)
	if cell.Evictions > 0 {
		cell.EvictedKind = res.Evictions[0].Kind.String()
	}
	switch {
	case cell.ExpectSurvive:
		// The strike's verdict stands; any alarm but the probe's own
		// divergence is a false one.
		cell.Survived = cell.BenignErrs == 0 && cell.Evictions == 1
		cell.FalseAlarm = cell.Detected && cell.AlarmReason != nvkernel.ReasonUIDDivergence.String()
	case s.K > 0:
		cell.MissedDetection = cell.AlarmReason != nvkernel.ReasonQuorumLost.String()
	default:
		cell.MissedDetection = (cell.ExpectDetect || cell.ExpectFaultAlarm) && !cell.Detected
		cell.FalseAlarm = cell.Detected && !cell.ExpectDetect && !cell.ExpectFaultAlarm
	}
	return cell, nil
}

// runPooled runs one cell against a fleet or a mesh.
func runPooled(cfg Config, s Spec, seed int64) (Cell, error) {
	cell := s.newCell()
	fopts := fleet.Options{
		Groups:   poolGroups,
		Variants: s.N,
		Workers:  s.Workers,
		Quorum:   s.K,
		Config:   harness.Config4UIDVariation,
		Server:   httpd.DefaultOptions(),
	}
	var (
		pools  []*fleet.Fleet
		get    func(r int, uri string) (int, error)
		route  = func(string) int { return 0 }
		settle func() error
		stop   func() error
		m      *mesh.Mesh
	)
	if s.Topology == Fleet {
		fopts.Seed, fopts.Obs = seed, cfg.Obs
		if s.Fault.Net != nil {
			fopts.Faults = s.Fault.Net.Injector(seed + 1)
		}
		fopts.Kernel = s.kernelOptions(seed)
		f, err := fleet.New(fopts)
		if err != nil {
			return cell, err
		}
		defer func() { _, _ = f.Stop() }()
		pools = []*fleet.Fleet{f}
		client := f.Client()
		get = func(_ int, uri string) (int, error) {
			code, _, err := client.Get(uri)
			return code, err
		}
		stop = func() error { _, err := f.Stop(); return err }
	} else {
		opts := mesh.Options{
			Pools:        s.Pools,
			Policy:       mesh.HashRouting,
			Seed:         seed,
			RetryBudget:  retryBudget,
			RetryBackoff: retryBackoff,
			Obs:          cfg.Obs,
			Fleet:        fopts,
		}
		if s.Rotation {
			opts.RotateEvery = rotateEvery
		}
		// Each pool's injector and hook draw from the pool's own derived
		// seed, and the fleet carries them into every group it spawns —
		// rotation replacements and respawns included.
		if np := s.Fault.Net; np != nil {
			opts.Faults = func(poolSeed int64) simnet.FaultInjector { return np.Injector(poolSeed + 1) }
		}
		if s.Fault.Kernel != nil || s.K > 0 {
			opts.Kernel = s.kernelOptions
		}
		var err error
		if m, err = mesh.New(opts); err != nil {
			return cell, err
		}
		defer func() { _, _ = m.Stop() }()
		for i := 0; i < m.Pools(); i++ {
			pools = append(pools, m.Pool(i))
		}
		keys := make([]*mesh.Session, sessions)
		for i := range keys {
			keys[i] = m.Session(fmt.Sprintf("client-%d", i))
		}
		get = func(r int, uri string) (int, error) {
			code, _, err := keys[r%len(keys)].Get(uri)
			return code, err
		}
		route = m.RouteKey
		if s.Rotation {
			// After any request whose tick fired a rotation trigger,
			// block until the controller has handled it (pool
			// replenished): that pins every group's rendezvous count,
			// and so the exposure vticks, to the seed.
			settle = func() error {
				want := m.Ticks() / rotateEvery
				return m.Await(func(st mesh.Stats) bool { return st.RotationsHandled >= want }, settleTimeout)
			}
		}
		stop = func() error {
			st, err := m.Stop()
			cell.Retries, cell.Reroutes, cell.BackoffTicks = st.Retries, st.Reroutes, st.BackoffTicks
			cell.Rotations, cell.RotationsSkipped = st.Rotations, st.RotationsSkipped
			return err
		}
	}

	if err := benign(&cell, s, get, pools, settle); err != nil {
		return cell, err
	}

	// Strikes against the pool each attacker key routes to, serialized
	// strike-and-settle so the detection counts are settled. The direct
	// client rides the pool's faulted network segment, so a fault plan
	// cannot mask a detection either.
	if s.Attack.Name == ForgeUID().Name {
		cell.Probes = strikes
		rng := rand.New(rand.NewSource(seed + 3))
		perPool := make([]int, len(pools))
		for i := 0; i < strikes; i++ {
			payload := attack.ForgeUIDPayload(word.Word(rng.Uint32()) &^ word.HighBit)
			pi := route(fmt.Sprintf("attacker-%d", i))
			f := pools[pi]
			port, ok := oldestGroupPort(f)
			if !ok {
				break
			}
			st := f.Stats()
			before, dets := st.Replaced, st.Detections
			detected, leaked := strike(httpd.NewClient(f.Net(), port), payload, func() bool {
				return f.Stats().Detections > dets
			})
			cell.Leaked = cell.Leaked || leaked
			if !detected {
				break
			}
			perPool[pi]++
			want := perPool[pi]
			if err := f.Await(func(st fleet.Stats) bool {
				return st.Detections >= want && st.Replaced > before && len(st.Healthy) >= poolGroups
			}, settleTimeout); err != nil {
				return cell, err
			}
		}
	}

	// A degraded quorum group is drained and respawned at full width
	// in the background; settle before reading the counters.
	if s.K > 0 {
		for _, f := range pools {
			if f.Await(func(st fleet.Stats) bool {
				return st.Evictions >= 1 && st.Respawned >= 1 && st.DegradedGroups == 0 && len(st.Healthy) >= poolGroups
			}, settleTimeout) != nil {
				cell.MissedRespawn = true
			}
		}
	}

	if err := stop(); err != nil {
		return cell, err
	}
	for _, f := range pools {
		st := f.Stats()
		cell.Detections += st.Detections
		cell.Spawned += st.Spawned
		cell.Replaced += st.Replaced
		cell.Evictions += st.Evictions
		cell.Respawned += st.Respawned
		cell.DegradedEnd += st.DegradedGroups
	}
	cell.MissedDetection = cell.Detections < cell.Probes
	cell.FalseAlarm = cell.Detections > cell.Probes
	sampleExposure(&cell, s.Fault, pools)
	return cell, nil
}

// benign runs the serialized benign phase. In pooled cells a restart
// plan shuts down the oldest group of a deterministically walked pool
// before every RestartEvery-th request and waits for its replacement
// (restart under load), and settle, when set, runs after every
// request.
func benign(cell *Cell, s Spec, get func(r int, uri string) (int, error), pools []*fleet.Fleet, settle func() error) error {
	every := s.Fault.RestartEvery
	for r := 0; r < s.Requests; r++ {
		if len(pools) > 0 && every > 0 && r > 0 && r%every == 0 {
			f := pools[(r/every-1)%len(pools)]
			before := f.Stats().Replaced
			if id := f.OldestGroupID(); id >= 0 && f.ShutdownGroup(id) {
				cell.Restarts++
				if err := f.Await(func(st fleet.Stats) bool {
					return st.Replaced > before && len(st.Healthy) >= poolGroups
				}, settleTimeout); err != nil {
					return err
				}
			}
		}
		code, err := get(r, benignMix[r%len(benignMix)])
		switch {
		case err == nil && code == 200:
			cell.BenignOK++
		case errors.Is(err, mesh.ErrSaturated):
			cell.BenignShed++
		case errors.Is(err, mesh.ErrQuorumLostKill):
			cell.BenignQuorumKills++
			cell.BenignErrs++
		case errors.Is(err, mesh.ErrQuarantineWindow):
			cell.BenignQuarantines++
			cell.BenignErrs++
		default:
			cell.BenignErrs++
		}
		if settle != nil {
			if err := settle(); err != nil {
				return err
			}
		}
	}
	if total := cell.BenignOK + cell.BenignShed + cell.BenignErrs; total > 0 {
		cell.Availability = float64(cell.BenignOK) / float64(total)
	} else {
		cell.Availability = 1
	}
	return nil
}

// driveAttack plays one corpus scenario against a group: each
// scripted payload, then trigger probes for the corruption's first
// use. It returns whether the protected document ever leaked.
//
// A dropped or truncated exchange may have destroyed the overwrite,
// so payloads are resent and trigger rounds repeated until the
// group's port refuses — the monitor killed it — or the budget is
// spent. The rounds never depend on the stack or the cell's
// expectation: an attacker that gave up early on an undefended
// deployment would make its leak depend on which lane won accept.
func driveAttack(client *httpd.Client, sc attack.Scenario, rng *rand.Rand, w int) (leaked bool) {
	payloads := sc.Build(rng)
	rounds := triggerRounds
	if !sc.Trigger {
		rounds = 1
	}
	for round := 0; round < rounds; round++ {
		for _, payload := range payloads {
			delivered := false
			for try := 0; try < 8 && !delivered; try++ {
				_, err := client.Raw(payload)
				switch {
				case err == nil:
					delivered = true
				case errors.Is(err, simnet.ErrRefused):
					return leaked // group dead: the monitor already fired
				}
				// Otherwise the fault plan severed the exchange — the
				// overwrite may not have landed; resend.
			}
			if !sc.Trigger || !delivered {
				continue
			}
			for t := 0; t < triggerBudget*w; t++ {
				if sc.InterleaveBenign && t%2 == 1 {
					// Healthy sibling lanes keep serving mid-corruption.
					if _, _, err := client.Get("/index.html"); errors.Is(err, simnet.ErrRefused) {
						return leaked
					}
					continue
				}
				code, body, err := client.Get("/private/secret.html")
				switch {
				case err == nil && code == 200 && httpd.ContainsSecret(body):
					return true
				case errors.Is(err, simnet.ErrRefused):
					return leaked
				}
			}
		}
	}
	return leaked
}

// strike sends a forged-UID overwrite straight to one group and probes
// for its first use, redelivering until the monitor killed the victim
// — its port refuses, or killed reports the pool counted the alarm —
// or the rounds are spent. The pool hands a dead group's port to its
// replacement, so a strike that only waited for a refusal could
// outrun it and forge the replacement too.
func strike(c *httpd.Client, payload []byte, killed func() bool) (detected, leaked bool) {
	for round := 0; round < 8; round++ {
		if killed() {
			return true, leaked
		}
		if _, err := c.Raw(payload); errors.Is(err, simnet.ErrRefused) {
			return true, leaked // a prior round's trigger already killed it
		}
		for t := 0; t < 64; t++ {
			if killed() {
				return true, leaked
			}
			code, body, err := c.Get("/private/secret.html")
			switch {
			case errors.Is(err, simnet.ErrRefused):
				return true, leaked
			case err == nil && code == 200 && httpd.ContainsSecret(body):
				leaked = true
			}
		}
	}
	return false, leaked
}

// oldestGroupPort resolves the port of a pool's longest-lived healthy
// group — a strike's deterministic victim.
func oldestGroupPort(f *fleet.Fleet) (uint16, bool) {
	id := f.OldestGroupID()
	if id < 0 {
		return 0, false
	}
	for _, g := range f.Stats().Healthy {
		if g.ID == id {
			return g.Port, true
		}
	}
	return 0, false
}

// sampleExposure records the pools' exposure windows: every retired
// group's teardown VTime from the audit trails. Rotations and
// quarantines end a mask set's exposure; clean departures and shrinks
// are not attacker-relevant retirements. Plans that reorder messages
// are not sampled: a reorder hold releases its message on a wall-clock
// timer, so the rendezvous it triggers race the drain point and the
// vtick age would not replay.
func sampleExposure(cell *Cell, plan chaos.Plan, pools []*fleet.Fleet) {
	if plan.Net != nil && plan.Net.ReorderRate > 0 {
		return
	}
	var samples []uint32
	for _, f := range pools {
		for _, e := range f.Audit().Entries() {
			switch e.Action {
			case "rotate", "rotate+replace", "quarantine", "quarantine+replace":
				samples = append(samples, e.VTime)
			}
		}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	cell.ExposureSamples = len(samples)
	cell.ExposureP50 = nearestRank(samples, 0.50)
	cell.ExposureP99 = nearestRank(samples, 0.99)
}

// nearestRank is the nearest-rank percentile of sorted samples.
func nearestRank(sorted []uint32, q float64) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// byteSweepVictim is the canonical worker UID the word-level brute
// force corrupts (wwwrun, the httpd worker identity in the stock
// world).
const byteSweepVictim = word.Word(30)

// runByteSweeps brute-forces every single-byte overwrite against the
// paper's published pair, then against each listed N's generated
// masks.
func runByteSweeps(cfg Config) ([]ByteSweepRow, error) {
	pair := reexpress.UIDVariation().Pair
	rows := []ByteSweepRow{{Name: "paper-uid-pair", N: 2}}
	funcs := [][]reexpress.Func{{pair.R0, pair.R1}}
	for _, n := range cfg.ByteSweep {
		spec := reexpress.Generate(chaos.CellSeed(cfg.Seed, "bytesweep", fmt.Sprint(n)), n, reexpress.LayerUID)
		rows = append(rows, ByteSweepRow{Name: "generated-masks", N: n})
		funcs = append(funcs, spec.UIDFuncs())
	}
	for i := range rows {
		rep, err := attack.ByteSweep(funcs[i], byteSweepVictim)
		if err != nil {
			return nil, err
		}
		rows[i].Trials, rows[i].Detected, rows[i].Corrupted, rows[i].Harmless =
			rep.Trials, rep.Detected, rep.Corrupted, rep.Harmless
	}
	return rows, nil
}

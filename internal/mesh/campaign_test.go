package mesh_test

// The mesh driven through the campaign engine: the mesh preset's
// rotation (fault=none) and fault-plan slices replay byte for byte,
// narrow cell by cell, and leave the mesh metric families behind; Check
// flags bad mesh matrices.

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"nvariant/internal/campaign"
	"nvariant/internal/chaos"
	"nvariant/internal/obs"
)

// meshConfig narrows the mesh preset to the given pool counts and fault
// plans at reduced per-cell volume, so double runs finish quickly even
// under -race.
func meshConfig(t *testing.T, seed int64, requests int, pools []int, faults ...string) campaign.Config {
	t.Helper()
	cfg, err := campaign.Preset("mesh", seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cells = slices.DeleteFunc(cfg.Cells, func(s campaign.Spec) bool {
		return !slices.Contains(pools, s.Pools) || !slices.Contains(faults, s.Fault.Name)
	})
	for i := range cfg.Cells {
		cfg.Cells[i].Requests = requests
	}
	return cfg
}

// runTwice runs a campaign twice and requires byte-identical matrices
// and a clean contract.
func runTwice(t *testing.T, cfg campaign.Config) *campaign.Result {
	t.Helper()
	r1, b1 := runJSON(t, cfg)
	_, b2 := runJSON(t, cfg)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("same-seed campaign not byte-identical:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", b1, b2)
	}
	if v := r1.Check(); len(v) != 0 {
		t.Fatalf("campaign contract violations: %v\n%s", v, b1)
	}
	return r1
}

func runJSON(t *testing.T, cfg campaign.Config) (*campaign.Result, []byte) {
	t.Helper()
	r, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return r, b
}

// requireFamilies checks that an instrumented campaign left the metric
// families on its registry.
func requireFamilies(t *testing.T, reg *obs.Registry, families ...string) {
	t.Helper()
	var text bytes.Buffer
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for _, family := range families {
		if !bytes.Contains(text.Bytes(), []byte(family)) {
			t.Errorf("registry missing %s after instrumented campaign", family)
		}
	}
}

// TestCampaignByteIdentical: the same seed reproduces the rotation
// matrix (the fault=none slice, P ∈ {1,2,4} × rotation × attack) byte
// for byte — every exposure-window vtick, availability ratio, and
// rotation count is a function of the seed alone.
func TestCampaignByteIdentical(t *testing.T) {
	r1 := runTwice(t, meshConfig(t, 42, 12, []int{1, 2, 4}, "none"))

	// Rotation-on cells rotated and sampled exposure windows;
	// rotation-off benign cells must have none (their exposure is
	// unbounded — the point of rotation).
	for _, c := range r1.Cells {
		switch {
		case c.Rotation && c.ExposureSamples == 0:
			t.Errorf("cell p=%d rotation=on attack=%s: no exposure samples", c.Pools, c.Attack)
		case !c.Rotation && c.Attack == "none" && c.ExposureSamples != 0:
			t.Errorf("cell p=%d rotation=off benign: %d exposure samples, want 0", c.Pools, c.ExposureSamples)
		}
		if c.Rotation && c.ExposureP99 < c.ExposureP50 {
			t.Errorf("cell p=%d: exposure P99 %d < P50 %d", c.Pools, c.ExposureP99, c.ExposureP50)
		}
	}
	if r1.Summary.MinAvailability < 0.99 {
		t.Errorf("min availability %.4f < 0.99", r1.Summary.MinAvailability)
	}
}

// TestCampaignInstrumentationPreservesJSON: attaching an obs registry
// must not perturb the rotation matrix — metrics record wall-clock data
// outside the deterministic output.
func TestCampaignInstrumentationPreservesJSON(t *testing.T) {
	cfg := meshConfig(t, 17, 8, []int{2}, "none")
	_, plain := runJSON(t, cfg)
	cfg.Obs = obs.NewRegistry()
	_, instr := runJSON(t, cfg)
	if !bytes.Equal(plain, instr) {
		t.Fatalf("instrumentation changed the matrix:\n--- plain ---\n%s\n--- instrumented ---\n%s", plain, instr)
	}
	requireFamilies(t, cfg.Obs, "mesh_dispatched_total", "mesh_rotations_total", "mesh_exposure_window_seconds", "mesh_pool_healthy_groups")
}

// meshCells stamps the mesh topology and the defended stack on
// synthetic cells, so Check applies its mesh gates to them.
func meshCells(cells ...campaign.Cell) *campaign.Result {
	for i := range cells {
		cells[i].Topology, cells[i].Stack, cells[i].N, cells[i].Workers = campaign.Mesh, campaign.StackFull, 2, 1
	}
	return &campaign.Result{Cells: cells}
}

// TestCampaignCheckFlagsViolations: Check is the CI gate — make sure
// it actually fires on a bad rotation matrix.
func TestCampaignCheckFlagsViolations(t *testing.T) {
	r := meshCells(
		campaign.Cell{Pools: 2, Rotation: true, Fault: "none", Attack: "none", Availability: 0.5, Rotations: 0},
		campaign.Cell{Pools: 2, Rotation: false, Fault: "none", Attack: "forge-uid", Availability: 1,
			Probes: 2, Detections: 1, MissedDetection: true, Leaked: true},
	)
	v := r.Check()
	if len(v) != 4 {
		t.Fatalf("Check found %d violations, want 4 (availability, no-rotation, missed, leak): %v", len(v), v)
	}
}

// TestChaosCampaignCheckFlagsViolations: Check is the CI gate — make
// sure each mesh contract clause actually fires on a bad fault matrix.
func TestChaosCampaignCheckFlagsViolations(t *testing.T) {
	r := meshCells(
		// availability floor + retries in the no-fault control
		campaign.Cell{Pools: 1, Fault: "none", Attack: "none", Availability: 0.5, Retries: 3, BackoffTicks: 6},
		// backoff/reroutes without retries
		campaign.Cell{Pools: 1, Fault: "net-mixed", Attack: "none", Availability: 1, BackoffTicks: 4},
		// under-charged backoff
		campaign.Cell{Pools: 1, Fault: "net-mixed", Attack: "none", Availability: 1, Retries: 4, BackoffTicks: 2},
		// reroutes exceeding retries
		campaign.Cell{Pools: 2, Fault: "net-mixed", Attack: "none", Availability: 1, Retries: 1, BackoffTicks: 2, Reroutes: 3},
		// rotation counted while disabled + restart plan without restarts
		campaign.Cell{Pools: 1, Rotation: false, Fault: "group-restart", Attack: "none", Availability: 1, Rotations: 2},
		// rotation enabled but never ran, missed detection, false alarm, leak
		campaign.Cell{Pools: 1, Rotation: true, Fault: "none", Attack: "forge-uid", Availability: 1,
			Probes: 2, Detections: 1, MissedDetection: true, FalseAlarm: true, Leaked: true},
	)
	v := r.Check()
	want := 11
	if len(v) != want {
		t.Fatalf("Check found %d violations, want %d:\n%v", len(v), want, v)
	}
}

// TestChaosCampaignByteIdentical: the same seed reproduces the fault
// slices byte for byte — every retry, re-route, backoff tick, restart,
// and exposure sample is a function of the seed alone.
func TestChaosCampaignByteIdentical(t *testing.T) {
	r1 := runTwice(t, meshConfig(t, 42, 12, []int{1, 2}, "none", "net-mixed", "group-restart"))
	// The lossy plan must have exercised the retry machinery somewhere
	// in the matrix — a sweep where net-mixed needed zero retries is
	// not stressing anything.
	var lossyRetries uint64
	for _, c := range r1.Cells {
		if c.Fault == "net-mixed" {
			lossyRetries += c.Retries
		}
	}
	if lossyRetries == 0 {
		t.Error("net-mixed cells needed no retries — the sweep is not exercising recovery")
	}
}

// TestChaosCampaignNarrowedCellParity: narrowing the sweep (the
// campaign CLI's filters) replays single cells bit-for-bit, because
// cell seeds derive from cell labels rather than sweep position.
func TestChaosCampaignNarrowedCellParity(t *testing.T) {
	full := meshConfig(t, 7, 12, []int{1, 2}, "none", "net-mixed", "group-restart")
	isCell := func(s campaign.Spec) bool {
		return s.Pools == 2 && s.Rotation && s.Fault.Name == "net-mixed" && s.Attack.Name == "forge-uid"
	}
	narrowed := full
	narrowed.Cells = slices.DeleteFunc(slices.Clone(full.Cells), func(s campaign.Spec) bool { return !isCell(s) })
	if len(narrowed.Cells) != 1 {
		t.Fatalf("narrowed run has %d cells, want 1", len(narrowed.Cells))
	}
	rFull, _ := runJSON(t, full)
	rSub, _ := runJSON(t, narrowed)
	want := rFull.Cells[slices.IndexFunc(full.Cells, isCell)]
	if !reflect.DeepEqual(rSub.Cells[0], want) {
		t.Errorf("narrowed cell diverged from the full matrix:\nfull:     %+v\nnarrowed: %+v", want, rSub.Cells[0])
	}
}

// TestChaosCampaignInstrumentationPreservesJSON: attaching an obs
// registry must not perturb the fault slices, and the registry must
// carry the retry/health metric families afterwards.
func TestChaosCampaignInstrumentationPreservesJSON(t *testing.T) {
	cfg := meshConfig(t, 17, 8, []int{2}, "none", "net-mixed", "group-restart")
	_, plain := runJSON(t, cfg)
	cfg.Obs = obs.NewRegistry()
	_, instr := runJSON(t, cfg)
	if !bytes.Equal(plain, instr) {
		t.Fatalf("instrumentation changed the matrix:\n--- plain ---\n%s\n--- instrumented ---\n%s", plain, instr)
	}
	requireFamilies(t, cfg.Obs, "mesh_retries_total", "mesh_reroutes_total", "mesh_retry_backoff_ticks", "mesh_pool_health")
}

// TestChaosCampaignRejectsCrashPlans: kernel crash plans cannot replay
// across a pool without a quorum, so the engine refuses a mesh cell
// carrying one instead of emitting a nondeterministic matrix.
func TestChaosCampaignRejectsCrashPlans(t *testing.T) {
	cfg := meshConfig(t, 1, 12, []int{1}, "none")
	crash, err := chaos.PlanByName("variant-crash")
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg.Cells[0]
	bad.Fault = crash
	cfg.Cells = append(cfg.Cells, bad)
	if _, err := campaign.Run(cfg); err == nil {
		t.Fatal("campaign accepted a kernel crash plan on a mesh cell")
	}
}

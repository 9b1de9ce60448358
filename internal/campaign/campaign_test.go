package campaign

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"nvariant/internal/attack"
)

// TestCheckFlagsEveryGate synthesizes one violation per gate of Check:
// each case is a passing cell or sweep row with exactly one field
// broken, and Check must report exactly that one violation.
func TestCheckFlagsEveryGate(t *testing.T) {
	group := Cell{Topology: Group, Attack: "forge-root-uid", Fault: "none", Stack: StackFull, N: 2, Workers: 1,
		ExpectDetect: true, BenignOK: 10, Availability: 1, Detected: true, AlarmReason: "uid-divergence"}
	quorum := Cell{Topology: Group, Attack: "forge-uid", Fault: "variant-crash", Stack: StackFull, N: 3, Workers: 1, K: 2,
		ExpectDetect: true, ExpectSurvive: true, BenignOK: 10, Availability: 1,
		Evictions: 1, EvictedKind: "crash", Survived: true, Detected: true, AlarmReason: "uid-divergence"}
	quorumFleet := Cell{Topology: Fleet, Attack: "none", Fault: "variant-stall", Stack: StackFull, N: 3, Workers: 1, K: 2,
		Pools: 1, BenignOK: 10, Availability: 1, Evictions: 1, Respawned: 1}
	mesh := Cell{Topology: Mesh, Attack: "forge-uid", Fault: "group-restart", Stack: StackFull, N: 2, Workers: 1,
		Pools: 2, Rotation: true, BenignOK: 24, Availability: 1,
		Retries: 2, Reroutes: 1, BackoffTicks: 6, Rotations: 4, Restarts: 5, Probes: 2, Detections: 2}
	sweep := ByteSweepRow{Name: "generated-masks", N: 2, Trials: 1024, Detected: 1024}

	clean := &Result{Cells: []Cell{group, quorum, quorumFleet, mesh}, ByteSweeps: []ByteSweepRow{sweep}}
	if v := clean.Check(); len(v) != 0 {
		t.Fatalf("clean matrix flagged: %v", v)
	}

	cases := []struct {
		gate   string
		base   Cell
		break_ func(*Cell)
		want   string
	}{
		{"missed detection", group, func(c *Cell) { c.Detected, c.MissedDetection = false, true }, "missed detection"},
		{"false alarm", group, func(c *Cell) { c.FalseAlarm = true }, "false alarm"},
		{"defended leak", mesh, func(c *Cell) { c.Leaked = true }, "secret leaked"},
		{"quorum survival", quorum, func(c *Cell) { c.Survived = false }, "did not survive"},
		{"quorum single eviction", quorum, func(c *Cell) { c.Evictions = 2 }, "want exactly 1"},
		{"quorum fleet availability", quorumFleet, func(c *Cell) { c.BenignErrs = 1 }, "benign errors across the fault"},
		{"quorum fleet respawn", quorumFleet, func(c *Cell) { c.MissedRespawn = true }, "respawned"},
		{"quorum fleet settles", quorumFleet, func(c *Cell) { c.DegradedEnd = 1 }, "still degraded"},
		{"mesh availability", mesh, func(c *Cell) { c.Availability = 0.5 }, "availability 0.5000 < 0.99"},
		{"backoff without retries", mesh, func(c *Cell) { c.Retries, c.Reroutes = 0, 0 }, "without retries"},
		{"backoff under-charged", mesh, func(c *Cell) { c.BackoffTicks = 3 }, "charged only"},
		{"reroutes within retries", mesh, func(c *Cell) { c.Reroutes = 3 }, "reroutes >"},
		{"no-fault control needs no retries", mesh, func(c *Cell) { c.Fault, c.Attack, c.Restarts = "none", "none", 0 }, "no-fault control"},
		{"rotation off counts none", mesh, func(c *Cell) { c.Rotation = false }, "rotation disabled but counted"},
		{"rotation on rotates", mesh, func(c *Cell) {
			c.Fault, c.Retries, c.Reroutes, c.BackoffTicks, c.Restarts, c.Rotations = "none", 0, 0, 0, 0, 0
		}, "none completed"},
		{"restart plan restarts", mesh, func(c *Cell) { c.Restarts = 0 }, "drove no restarts"},
	}
	for _, tc := range cases {
		t.Run(tc.gate, func(t *testing.T) {
			c := tc.base
			tc.break_(&c)
			v := (&Result{Cells: []Cell{c}}).Check()
			if len(v) != 1 || !strings.Contains(v[0], tc.want) {
				t.Fatalf("Check = %q, want exactly one violation containing %q", v, tc.want)
			}
		})
	}
	t.Run("byte-sweep corruption", func(t *testing.T) {
		bad := sweep
		bad.Detected, bad.Corrupted = 1000, 24
		v := (&Result{ByteSweeps: []ByteSweepRow{bad}}).Check()
		if len(v) != 1 || !strings.Contains(v[0], "undetected corruptions") {
			t.Fatalf("Check = %q, want one undetected-corruption violation", v)
		}
	})
}

// TestCrashTriggerReplaysAcrossLanes: a variant-crash plan strikes the
// N-th Recv of variant 1 counted across all worker lanes, so the
// struck request must be the same however the lanes are scheduled.
// Copies of the W=2 crash cell run concurrently — the CPU contention
// that used to let the group's readiness read land after the first
// benign requests — and must emit identical bytes.
func TestCrashTriggerReplaysAcrossLanes(t *testing.T) {
	cfg := Config{Seed: 7, Cells: []Spec{{Topology: Group, Attack: NoAttack(), Fault: plans("variant-crash")[0],
		Stack: StackFull, N: 2, Workers: 2, Requests: 6}}}
	const copies = 16
	out := make([][]byte, copies)
	errs := make([]error, copies)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := Run(cfg)
			if err == nil {
				out[i], err = res.JSON()
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i := range out {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(out[0], out[i]) {
			t.Fatalf("run %d diverged from run 0:\n%s\n---\n%s", i, out[0], out[i])
		}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c := res.Cells[0]; c.BenignOK != 1 || !c.Detected || c.MissedDetection {
		t.Errorf("crash cell: %d ok, detected %v — want the trigger on the second request, detected", c.BenignOK, c.Detected)
	}
}

// TestRejectsUnreplayableCells: a kernel crash plan on a pooled cell
// without a quorum would count its trigger across replacement startups
// and not replay, and a corpus scenario needs a bare group; Run refuses
// both before running anything.
func TestRejectsUnreplayableCells(t *testing.T) {
	crash := plans("variant-crash")[0]
	for _, s := range []Spec{
		{Topology: Fleet, Attack: NoAttack(), Fault: crash, Stack: StackFull, N: 2, Workers: 1, Pools: 1, Requests: 1},
		{Topology: Mesh, Attack: NoAttack(), Fault: crash, Stack: StackFull, N: 2, Workers: 1, Pools: 2, Requests: 1},
		{Topology: Fleet, Attack: attack.Corpus()[0], Fault: plans("none")[0],
			Stack: StackFull, N: 2, Workers: 1, Pools: 1, Requests: 1},
	} {
		if _, err := Run(Config{Seed: 1, Cells: []Spec{s}}); err == nil {
			t.Errorf("Run accepted %s", s.newCell().id())
		}
	}
	// With a quorum the crash is survived, and the pooled cell runs.
	quorum := Spec{Topology: Fleet, Attack: NoAttack(), Fault: crash, Stack: StackFull, N: 3, Workers: 1, K: 2, Pools: 1}
	if err := quorum.validate(); err != nil {
		t.Errorf("quorum fleet crash cell rejected: %v", err)
	}
}

// TestPresetShapes pins each preset's cell count per topology.
func TestPresetShapes(t *testing.T) {
	want := map[string]map[string]int{
		"default":    {Group: 284, Fleet: 6},
		"fault-only": {Group: 54},
		"quorum":     {Group: 4, Fleet: 2},
		"mesh":       {Mesh: 48},
	}
	for _, name := range Presets() {
		cfg, err := Preset(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]int{}
		for _, s := range cfg.Cells {
			if err := s.validate(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			got[s.Topology]++
		}
		for topo, n := range want[name] {
			if got[topo] != n {
				t.Errorf("%s: %d %s cells, want %d", name, got[topo], topo, n)
			}
		}
	}
	if _, err := Preset("nope", 1); err == nil {
		t.Error("unknown preset accepted")
	}
}

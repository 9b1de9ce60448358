package chaos_test

// The chaos fault plans driven through the campaign engine: the group,
// fleet and quorum cells' determinism and contract, per fault plan.

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"nvariant/internal/campaign"
	"nvariant/internal/chaos"
)

// smallConfig is a fast narrowing of the default campaign that still
// exercises every moving part: benign, detecting and flood scenarios
// under every fault plan on serial and prefork full-stack groups; the
// cross-lane corruption against undefended prefork groups, whose leak
// must replay; the fleet cells with one probe each; and the quorum
// cells.
func smallConfig(seed int64) campaign.Config {
	cfg, err := campaign.Preset("default", seed)
	if err != nil {
		panic(err)
	}
	cfg.ByteSweep = nil
	cfg.Cells = slices.DeleteFunc(cfg.Cells, func(s campaign.Spec) bool {
		if s.Topology != campaign.Group || s.K > 0 {
			return false
		}
		defended := s.Stack == campaign.StackFull &&
			slices.Contains([]string{"none", "forge-root-uid", "malformed-flood"}, s.Attack.Name)
		undefended := s.Stack == campaign.StackBaseline && s.Attack.Name == "cross-lane-corruption" && s.Workers == 2
		return s.N != 2 || !(defended || undefended)
	})
	for i := range cfg.Cells {
		cfg.Cells[i].Requests = 6
	}
	return cfg
}

// firstDiff reports the first line where two renderings diverge.
func firstDiff(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < min(len(al), len(bl)); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d: %q != %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length mismatch: %d vs %d lines", len(al), len(bl))
}

// runJSON runs a campaign and renders its matrix.
func runJSON(t *testing.T, cfg campaign.Config) (*campaign.Result, []byte) {
	t.Helper()
	r, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return r, j
}

func TestCampaignSameSeedByteIdenticalJSON(t *testing.T) {
	cfg := smallConfig(7)
	r1, j1 := runJSON(t, cfg)
	_, j2 := runJSON(t, cfg)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("same seed produced different matrices: %s", firstDiff(j1, j2))
	}
	if v := r1.Check(); len(v) > 0 {
		t.Fatalf("campaign contract violated: %v", v)
	}
	if r1.Summary.UndefendedLeaks == 0 {
		t.Error("no cross-lane corruption leaked from an undefended prefork group — the attack is not reaching the corrupted lane")
	}
}

func TestFaultOnlyCampaignZeroFalseAlarms(t *testing.T) {
	// Every transparent fault plan against healthy full-stack groups at
	// N ∈ {2,3,5}, W ∈ {1,4} must produce zero alarms — the paper's
	// transparency-under-benign-faults claim swept across the whole
	// chaos plan set.
	cfg, err := campaign.Preset("fault-only", 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfg.Cells {
		cfg.Cells[i].Requests = 8
	}
	r, _ := runJSON(t, cfg)
	if want := len(chaos.TransparentPlans()) * 3 * 2; len(r.Cells) != want {
		t.Fatalf("cells = %d, want %d", len(r.Cells), want)
	}
	for _, c := range r.Cells {
		if c.Detected {
			t.Errorf("false alarm under %s at n=%d w=%d: %s", c.Fault, c.N, c.Workers, c.AlarmReason)
		}
		if c.BenignOK == 0 {
			t.Errorf("no request survived %s at n=%d w=%d", c.Fault, c.N, c.Workers)
		}
	}
	if r.Summary.FalseAlarms != 0 {
		t.Errorf("summary.FalseAlarms = %d, want 0", r.Summary.FalseAlarms)
	}
	if v := r.Check(); len(v) > 0 {
		t.Errorf("violations: %v", v)
	}
}

func TestCampaignCorpusDetectedAndBaselineLeaks(t *testing.T) {
	// Every corpus scenario against both stacks, fault-free: the full
	// stack must detect every detection-class attack with no defended
	// leak; the diversity baseline (no UID layer) must leak the secret
	// to the root-forging attack — the contrast that quantifies what
	// the data variation buys.
	cfg, err := campaign.Preset("default", 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ByteSweep = nil
	cfg.Cells = slices.DeleteFunc(cfg.Cells, func(s campaign.Spec) bool {
		return s.Topology != campaign.Group || s.K > 0 || s.Attack.Name == "none" ||
			s.Fault.Name != "none" || s.N != 2 || s.Workers != 1
	})
	for i := range cfg.Cells {
		cfg.Cells[i].Requests = 4
	}
	r, _ := runJSON(t, cfg)
	baselineLeaked := false
	for _, c := range r.Cells {
		switch {
		case c.ExpectDetect && !c.Detected:
			t.Errorf("%s on %s: not detected", c.Attack, c.Stack)
		case c.Stack == campaign.StackFull && c.Leaked:
			t.Errorf("%s leaked from a defended group", c.Attack)
		case c.Attack == "malformed-flood" && c.Detected:
			t.Errorf("malformed flood raised a false alarm on %s: %s", c.Stack, c.AlarmReason)
		}
		if c.Stack == campaign.StackBaseline && c.Attack == "forge-root-uid" {
			baselineLeaked = c.Leaked
		}
	}
	if !baselineLeaked {
		t.Error("forge-root-uid did not leak from the undefended baseline stack — the attack itself is broken")
	}
}

func TestCampaignByteSweepNoCorruption(t *testing.T) {
	r, _ := runJSON(t, campaign.Config{Seed: 11, ByteSweep: []int{2, 4}})
	if len(r.ByteSweeps) != 3 { // paper pair + one per N
		t.Fatalf("byte-sweep rows = %d, want 3", len(r.ByteSweeps))
	}
	for _, b := range r.ByteSweeps {
		if b.Trials != 1024 {
			t.Errorf("%s n=%d: trials = %d, want 1024", b.Name, b.N, b.Trials)
		}
		if b.Corrupted != 0 {
			t.Errorf("%s n=%d: %d undetected corruptions", b.Name, b.N, b.Corrupted)
		}
		if b.Detected != b.Trials {
			t.Errorf("%s n=%d: %d/%d detected", b.Name, b.N, b.Detected, b.Trials)
		}
	}
}

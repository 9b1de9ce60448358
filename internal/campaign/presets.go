package campaign

import (
	"fmt"

	"nvariant/internal/attack"
	"nvariant/internal/chaos"
)

// Presets lists the preset campaign names:
//
//   - default: the attack corpus against every standard fault class on
//     bare groups (N ∈ {2,3}, W ∈ {1,2}, both stacks), the byte sweeps,
//     fleet restart-and-probe cells, and K=2 quorum cells;
//   - fault-only: every transparent fault plan against healthy
//     full-stack groups at N ∈ {2,3,5}, W ∈ {1,4} — zero alarms;
//   - quorum: the K=2 crash and stall survival, quorum-lost and fleet
//     eviction/respawn cells alone;
//   - mesh: P ∈ {1,2,4} pools × rotation × {none, net-mixed,
//     slow-syscalls, group-restart} × {none, forge-uid}; its fault=none
//     slice is the rotation campaign.
func Presets() []string { return []string{"default", "fault-only", "quorum", "mesh"} }

// Preset returns the named campaign at the given seed.
func Preset(name string, seed int64) (Config, error) {
	cfg := Config{Seed: seed}
	switch name {
	case "default":
		faults := plans("none", "net-mixed", "slow-syscalls", "variant-crash", "group-restart")
		cfg.Cells = groupCells(append([]attack.Scenario{NoAttack()}, attack.Corpus()...), faults,
			[]string{StackFull, StackBaseline}, []int{2, 3}, []int{1, 2}, 10)
		cfg.ByteSweep = []int{2, 3}
		for _, p := range faults {
			if p.Kernel != nil && p.Kernel.CrashAfter > 0 {
				continue // group cells cover crash-and-drain; see Spec.validate
			}
			cfg.Cells = append(cfg.Cells, Spec{Topology: Fleet, Attack: ForgeUID(), Fault: p, Stack: StackFull,
				N: 2, Workers: 1, Pools: 1, Requests: 10})
		}
		cfg.Cells = append(cfg.Cells, quorumCells(2, 10)...)
	case "fault-only":
		cfg.Cells = groupCells([]attack.Scenario{NoAttack()}, chaos.TransparentPlans(),
			[]string{StackFull}, []int{2, 3, 5}, []int{1, 4}, 10)
	case "quorum":
		cfg.Cells = quorumCells(2, 8)
	case "mesh":
		for _, pools := range []int{1, 2, 4} {
			for _, rotation := range []bool{false, true} {
				for _, p := range plans("none", "net-mixed", "slow-syscalls", "group-restart") {
					for _, sc := range []attack.Scenario{NoAttack(), ForgeUID()} {
						cfg.Cells = append(cfg.Cells, Spec{Topology: Mesh, Attack: sc, Fault: p, Stack: StackFull,
							N: 2, Workers: 1, Pools: pools, Rotation: rotation, Requests: 24})
					}
				}
			}
		}
	default:
		return cfg, fmt.Errorf("campaign: unknown preset %q (%v)", name, Presets())
	}
	return cfg, nil
}

// groupCells crosses attacks × faults × stacks × N × W into unanimous
// group cells.
func groupCells(attacks []attack.Scenario, faults []chaos.Plan, stacks []string, ns, ws []int, requests int) []Spec {
	var cells []Spec
	for _, sc := range attacks {
		for _, p := range faults {
			for _, stack := range stacks {
				for _, n := range ns {
					for _, w := range ws {
						cells = append(cells, Spec{Topology: Group, Attack: sc, Fault: p, Stack: stack,
							N: n, Workers: w, Requests: requests})
					}
				}
			}
		}
	}
	return cells
}

// quorumCells are the K-of-N cells of each quorum fault plan: a group
// at N = K+1 that must survive the fault and still detect a divergence
// strike among its live variants, a group at N = K that must die
// quorum-lost, and then a K-of-(K+1) fleet per plan that must evict,
// respawn and keep serving.
func quorumCells(k, requests int) []Spec {
	var cells []Spec
	for _, p := range chaos.QuorumPlans() {
		cells = append(cells,
			Spec{Topology: Group, Attack: ForgeUID(), Fault: p, Stack: StackFull, N: k + 1, Workers: 1, K: k, Requests: requests},
			Spec{Topology: Group, Attack: NoAttack(), Fault: p, Stack: StackFull, N: k, Workers: 1, K: k, Requests: requests})
	}
	for _, p := range chaos.QuorumPlans() {
		cells = append(cells, Spec{Topology: Fleet, Attack: NoAttack(), Fault: p, Stack: StackFull,
			N: k + 1, Workers: 1, K: k, Pools: 1, Requests: requests})
	}
	return cells
}

// plans resolves standard fault-plan names.
func plans(names ...string) []chaos.Plan {
	out := make([]chaos.Plan, len(names))
	for i, name := range names {
		p, err := chaos.PlanByName(name)
		if err != nil {
			panic(err) // the standard set always carries these
		}
		out[i] = p
	}
	return out
}

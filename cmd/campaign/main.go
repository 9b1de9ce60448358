// Command campaign runs a campaign of the one campaign engine
// (internal/campaign) and emits its deterministic JSON matrix on
// stdout. The same -seed reproduces byte-identical output, so any
// finding is a replayable regression test:
//
//	go run ./cmd/campaign -preset default -check      # corpus × faults, fleet, quorum
//	go run ./cmd/campaign -preset fault-only -check   # transparency matrix
//	go run ./cmd/campaign -preset quorum -check       # K-of-N survival matrix
//	go run ./cmd/campaign -preset mesh -check         # pools × rotation × faults × attack
//	go run ./cmd/campaign -preset mesh -pools 2 -rotation on \
//	    -faults net-mixed -attacks forge-uid          # replay one cell
//
// The narrowing flags filter the preset's cells without changing the
// surviving cells' bytes: cell seeds derive from cell labels, not
// sweep position.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"nvariant/internal/campaign"
	"nvariant/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		preset     = flag.String("preset", "default", "campaign preset: "+strings.Join(campaign.Presets(), ", "))
		seed       = flag.Int64("seed", 1, "campaign seed; the same seed reproduces byte-identical output")
		requests   = flag.Int("requests", 0, "benign requests per cell (0 = preset default)")
		topologies = flag.String("topology", "", "keep only these comma-separated topologies: group, fleet, mesh")
		attacks    = flag.String("attacks", "", "keep only these comma-separated attacks ('none' is the benign cell)")
		faults     = flag.String("faults", "", "keep only these comma-separated fault plans")
		stacks     = flag.String("stacks", "", "keep only these comma-separated stacks: uid+addr+files, addr+files")
		ns         = flag.String("n", "", "keep only these comma-separated group sizes (byte sweeps too)")
		workers    = flag.String("workers", "", "keep only these comma-separated worker-lane counts")
		pools      = flag.String("pools", "", "keep only mesh cells with these comma-separated pool counts")
		rotation   = flag.String("rotation", "", "keep only mesh cells with this rotation setting: on or off")
		noSweep    = flag.Bool("no-bytesweep", false, "skip the word-level mask-byte brute force")
		check      = flag.Bool("check", false, "exit non-zero if the matrix violates the campaign contract")
		human      = flag.Bool("v", false, "also print the human-readable summary to stderr")
		opsAddr    = flag.String("ops", "", "serve /metrics and pprof on this host address while the campaign runs (never alters the JSON)")
	)
	flag.Parse()

	cfg, err := campaign.Preset(*preset, *seed)
	if err != nil {
		return err
	}
	nList, err := ints(*ns)
	if err != nil {
		return fmt.Errorf("-n: %w", err)
	}
	wList, err := ints(*workers)
	if err != nil {
		return fmt.Errorf("-workers: %w", err)
	}
	pList, err := ints(*pools)
	if err != nil {
		return fmt.Errorf("-pools: %w", err)
	}
	if *rotation != "" && *rotation != "on" && *rotation != "off" {
		return fmt.Errorf("-rotation: want on or off, got %q", *rotation)
	}
	cfg.Cells = slices.DeleteFunc(cfg.Cells, func(s campaign.Spec) bool {
		if s.Topology != campaign.Mesh && (len(pList) > 0 || *rotation != "") {
			return true // -pools and -rotation select mesh cells
		}
		rot := "off"
		if s.Rotation {
			rot = "on"
		}
		return !keep(*topologies, s.Topology) || !keep(*attacks, s.Attack.Name) ||
			!keep(*faults, s.Fault.Name) || !keep(*stacks, s.Stack) ||
			!keepInt(nList, s.N) || !keepInt(wList, s.Workers) ||
			!keepInt(pList, s.Pools) || !keep(*rotation, rot)
	})
	if *requests > 0 {
		for i := range cfg.Cells {
			cfg.Cells[i].Requests = *requests
		}
	}
	if *noSweep {
		cfg.ByteSweep = nil
	}
	cfg.ByteSweep = slices.DeleteFunc(cfg.ByteSweep, func(n int) bool { return !keepInt(nList, n) })

	if *opsAddr != "" {
		reg := obs.NewRegistry()
		srv, err := obs.StartServer(*opsAddr, reg, nil)
		if err != nil {
			return fmt.Errorf("-ops: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "campaign: ops server on http://%s (/metrics, /debug/pprof)\n", srv.Addr)
		cfg.Obs = reg
	}

	res, err := campaign.Run(cfg)
	if err != nil {
		return err
	}
	out, err := res.JSON()
	if err != nil {
		return err
	}
	if _, err := os.Stdout.Write(out); err != nil {
		return err
	}
	if *human {
		res.Fprint(os.Stderr)
	}
	if *check {
		if violations := res.Check(); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "violation:", v)
			}
			return fmt.Errorf("%d contract violations", len(violations))
		}
	}
	return nil
}

// keep reports whether value is in the comma-separated list (an empty
// list keeps everything).
func keep(list, value string) bool {
	if list == "" {
		return true
	}
	for _, tok := range strings.Split(list, ",") {
		if strings.TrimSpace(tok) == value {
			return true
		}
	}
	return false
}

// keepInt reports whether v is in the list (an empty list keeps
// everything).
func keepInt(list []int, v int) bool { return len(list) == 0 || slices.Contains(list, v) }

// ints parses a comma-separated int list.
func ints(s string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok == "" {
			continue
		}
		v, err := strconv.Atoi(tok)
		if err != nil {
			return nil, fmt.Errorf("bad int %q", tok)
		}
		out = append(out, v)
	}
	return out, nil
}

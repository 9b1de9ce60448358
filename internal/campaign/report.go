package campaign

import (
	"fmt"
	"io"
)

// FaultSummary aggregates one fault plan across its unanimous group
// cells.
type FaultSummary struct {
	Fault      string `json:"fault"`
	Cells      int    `json:"cells"`
	BenignOK   int    `json:"benign_ok"`
	BenignErrs int    `json:"benign_errs"`
	// ThroughputRetained is this plan's benign-request completions
	// over the "none" plan's — the deterministic availability ratio.
	ThroughputRetained float64 `json:"throughput_retained"`
	FalseAlarms        int     `json:"false_alarms"`
}

// Summary is the campaign headline. ExpectedDetections counts group
// cells (a quorum group's divergence probe included); strikes against
// pools count in Probes / ProbeDetections. Fields of topologies the
// campaign did not run are zero and omitted.
type Summary struct {
	Cells              int     `json:"cells"`
	ExpectedDetections int     `json:"expected_detections"`
	Detections         int     `json:"detections"`
	MissedDetections   int     `json:"missed_detections"`
	FalseAlarms        int     `json:"false_alarms"`
	DefendedLeaks      int     `json:"defended_leaks"`
	UndefendedLeaks    int     `json:"undefended_leaks"`
	DetectionRate      float64 `json:"detection_rate"`

	Probes          int `json:"probes,omitempty"`
	ProbeDetections int `json:"probe_detections,omitempty"`

	QuorumCells     int `json:"quorum_cells,omitempty"`
	QuorumSurvived  int `json:"quorum_survived,omitempty"`
	QuorumEvictions int `json:"quorum_evictions,omitempty"`
	QuorumRespawns  int `json:"quorum_respawns,omitempty"`

	MeshCells        int     `json:"mesh_cells,omitempty"`
	MinAvailability  float64 `json:"min_availability,omitempty"`
	Retries          uint64  `json:"retries,omitempty"`
	Reroutes         uint64  `json:"reroutes,omitempty"`
	BackoffTicks     uint64  `json:"backoff_ticks,omitempty"`
	Rotations        uint64  `json:"rotations,omitempty"`
	RotationsSkipped uint64  `json:"rotations_skipped,omitempty"`
	Restarts         int     `json:"restarts,omitempty"`

	PerFault []FaultSummary `json:"per_fault,omitempty"`
}

// summarize computes the campaign headline from the matrix.
func summarize(r *Result) Summary {
	s := Summary{Cells: len(r.Cells)}
	perFault := make(map[string]*FaultSummary)
	var order []string
	for _, c := range r.Cells {
		if c.ExpectDetect && c.Topology == Group {
			s.ExpectedDetections++
			if !c.MissedDetection {
				s.Detections++
			}
		}
		if c.MissedDetection {
			s.MissedDetections++
		}
		if c.FalseAlarm {
			s.FalseAlarms++
		}
		if c.Leaked {
			if c.Stack == StackFull {
				s.DefendedLeaks++
			} else {
				s.UndefendedLeaks++
			}
		}
		if c.Topology != Group {
			s.Probes += c.Probes
			s.ProbeDetections += c.Detections
		}
		if c.K > 0 {
			s.QuorumCells++
			if c.Survived {
				s.QuorumSurvived++
			}
			s.QuorumEvictions += c.Evictions
			s.QuorumRespawns += c.Respawned
		}
		if c.Topology == Mesh {
			if s.MeshCells == 0 || c.Availability < s.MinAvailability {
				s.MinAvailability = c.Availability
			}
			s.MeshCells++
			s.Retries += c.Retries
			s.Reroutes += c.Reroutes
			s.BackoffTicks += c.BackoffTicks
			s.Rotations += c.Rotations
			s.RotationsSkipped += c.RotationsSkipped
			s.Restarts += c.Restarts
		}
		if c.Topology == Group && c.K == 0 {
			fs := perFault[c.Fault]
			if fs == nil {
				fs = &FaultSummary{Fault: c.Fault}
				perFault[c.Fault] = fs
				order = append(order, c.Fault)
			}
			fs.Cells++
			fs.BenignOK += c.BenignOK
			fs.BenignErrs += c.BenignErrs
			if c.FalseAlarm {
				fs.FalseAlarms++
			}
		}
	}
	if s.ExpectedDetections > 0 {
		s.DetectionRate = float64(s.Detections) / float64(s.ExpectedDetections)
	}
	for _, name := range order {
		fs := perFault[name]
		if none := perFault["none"]; none != nil && none.BenignOK > 0 {
			fs.ThroughputRetained = float64(fs.BenignOK) / float64(none.BenignOK)
		}
		s.PerFault = append(s.PerFault, *fs)
	}
	return s
}

// id names a cell in violations and reports.
func (c Cell) id() string {
	id := fmt.Sprintf("%s %s/%s/%s n=%d w=%d", c.Topology, c.Attack, c.Fault, c.Stack, c.N, c.Workers)
	if c.K > 0 {
		id += fmt.Sprintf(" k=%d", c.K)
	}
	if c.Topology == Mesh {
		id += fmt.Sprintf(" p=%d rotation=%t", c.Pools, c.Rotation)
	}
	return id
}

// Check returns the list of contract violations in the matrix; an
// empty list is the passing campaign. Every cell must detect what it
// expects, raise no false alarm, and leak nothing from a UID stack;
// every byte sweep must detect every corruption. The remaining gates
// are keyed by cell properties:
//
//   - quorum groups with a spare variant survive the fault with
//     exactly one eviction;
//   - quorum fleets serve every request across the fault, evict and
//     respawn, and settle undegraded;
//   - mesh cells, whose sessions retry, keep availability ≥ 0.99,
//     charge backoff consistently with their retries, need no retries
//     without a fault or an attack, rotate exactly when rotation is on
//     (a fault may starve rotation; no fault may not), and restart
//     under a restart plan.
func (r *Result) Check() []string {
	var v []string
	for i := range r.Cells {
		c := &r.Cells[i]
		bad := func(format string, args ...any) {
			v = append(v, c.id()+": "+fmt.Sprintf(format, args...))
		}
		if c.MissedDetection {
			bad("missed detection (alarm %q, %d/%d probes detected)", c.AlarmReason, c.Detections, c.Probes)
		}
		if c.FalseAlarm {
			bad("false alarm (alarm %q, %d detections for %d probes)", c.AlarmReason, c.Detections, c.Probes)
		}
		if c.Leaked && c.Stack == StackFull {
			bad("secret leaked from a defended deployment")
		}
		if c.ExpectSurvive && (!c.Survived || c.Evictions != 1) {
			bad("group did not survive the fault (%d/%d benign ok, %d evicted, want exactly 1)",
				c.BenignOK, c.BenignOK+c.BenignErrs, c.Evictions)
		}
		if c.Topology == Fleet && c.K > 0 {
			if c.BenignErrs > 0 {
				bad("%d benign errors across the fault, want full availability", c.BenignErrs)
			}
			if c.Evictions < 1 || c.Respawned < 1 || c.MissedRespawn {
				bad("evicted %d / respawned %d, want >= 1 each", c.Evictions, c.Respawned)
			}
			if c.DegradedEnd != 0 {
				bad("%d groups still degraded after settle", c.DegradedEnd)
			}
		}
		if c.Topology == Mesh {
			if c.Availability < 0.99 {
				bad("availability %.4f < 0.99", c.Availability)
			}
			switch {
			case c.Retries == 0 && (c.BackoffTicks != 0 || c.Reroutes != 0):
				bad("backoff/reroutes without retries (%d/%d)", c.BackoffTicks, c.Reroutes)
			case c.Retries > 0 && c.BackoffTicks < c.Retries*retryBackoff:
				bad("%d retries charged only %d backoff ticks (base %d)", c.Retries, c.BackoffTicks, retryBackoff)
			case c.Reroutes > c.Retries:
				bad("%d reroutes > %d retries", c.Reroutes, c.Retries)
			}
			if c.Fault == "none" && c.Attack == "none" && c.Retries != 0 {
				bad("%d retries in the no-fault control", c.Retries)
			}
			if !c.Rotation && c.Rotations != 0 {
				bad("rotation disabled but counted")
			}
			if c.Rotation && c.Fault == "none" && c.Rotations == 0 {
				bad("rotation enabled but none completed")
			}
			if c.Fault == "group-restart" && c.Restarts == 0 {
				bad("group-restart plan drove no restarts")
			}
		}
	}
	for _, b := range r.ByteSweeps {
		if b.Corrupted > 0 {
			v = append(v, fmt.Sprintf("byte-sweep %s n=%d: %d undetected corruptions", b.Name, b.N, b.Corrupted))
		}
	}
	return v
}

// Fprint renders the headline, the per-fault table of unanimous group
// cells and one row per pooled or quorum cell (exposure is P50/P99 in
// vticks) for humans; the JSON matrix is the machine artifact.
func (r *Result) Fprint(w io.Writer) {
	s := r.Summary
	fmt.Fprintf(w, "Campaign (seed %d): %d cells, %d byte sweeps\n", r.Seed, s.Cells, len(r.ByteSweeps))
	fmt.Fprintf(w, "  detection: %d/%d expected (rate %.2f); pooled probes %d/%d; missed %d; false alarms %d\n",
		s.Detections, s.ExpectedDetections, s.DetectionRate, s.ProbeDetections, s.Probes, s.MissedDetections, s.FalseAlarms)
	fmt.Fprintf(w, "  leaks: %d defended (must be 0), %d undefended-baseline (expected)\n",
		s.DefendedLeaks, s.UndefendedLeaks)
	if s.QuorumCells > 0 {
		fmt.Fprintf(w, "  quorum: %d cells, %d survived, %d evictions, %d respawns\n",
			s.QuorumCells, s.QuorumSurvived, s.QuorumEvictions, s.QuorumRespawns)
	}
	if s.MeshCells > 0 {
		fmt.Fprintf(w, "  mesh: %d cells, min availability %.4f; retries %d (%d rerouted, %d backoff ticks); rotations %d (%d skipped); restarts %d\n",
			s.MeshCells, s.MinAvailability, s.Retries, s.Reroutes, s.BackoffTicks, s.Rotations, s.RotationsSkipped, s.Restarts)
	}
	if len(s.PerFault) > 0 {
		fmt.Fprintf(w, "  %-14s %6s %10s %10s %12s %s\n", "fault", "cells", "benign-ok", "errors", "tput-ratio", "false-alarms")
		for _, fs := range s.PerFault {
			fmt.Fprintf(w, "  %-14s %6d %10d %10d %12.3f %d\n",
				fs.Fault, fs.Cells, fs.BenignOK, fs.BenignErrs, fs.ThroughputRetained, fs.FalseAlarms)
		}
	}
	for _, b := range r.ByteSweeps {
		fmt.Fprintf(w, "  byte-sweep %-16s n=%d: %d/%d detected, %d corrupted, %d harmless\n",
			b.Name, b.N, b.Detected, b.Trials, b.Corrupted, b.Harmless)
	}
	header := false
	for _, c := range r.Cells {
		if c.Topology == Group && c.K == 0 {
			continue // aggregated in the per-fault table
		}
		if !header {
			fmt.Fprintf(w, "  %-6s %-10s %-14s %2s %2s %2s %4s %-5s %7s %14s %7s %8s %8s %8s %8s %9s\n", "topo", "attack", "fault",
				"n", "k", "p", "rot", "avail", "benign", "detection", "evicted", "respawns", "retries", "rotation", "restarts", "exposure")
			header = true
		}
		rot, exposure, detection := "-", "-", fmt.Sprintf("%d/%d", c.Detections, c.Probes)
		if c.Rotation {
			rot = "on"
		}
		if c.ExposureSamples > 0 {
			exposure = fmt.Sprintf("%d/%d", c.ExposureP50, c.ExposureP99)
		}
		if c.Topology == Group {
			detection = c.AlarmReason
		}
		fmt.Fprintf(w, "  %-6s %-10s %-14s %2d %2d %2d %4s %.3f %7s %14s %7d %8d %8d %8d %8d %9s\n",
			c.Topology, c.Attack, c.Fault, c.N, c.K, c.Pools, rot, c.Availability,
			fmt.Sprintf("%d/%d", c.BenignOK, c.BenignOK+c.BenignShed+c.BenignErrs), detection,
			c.Evictions, c.Respawned, c.Retries, c.Rotations, c.Restarts, exposure)
	}
	if v := r.Check(); len(v) > 0 {
		fmt.Fprintf(w, "  VIOLATIONS (%d):\n", len(v))
		for _, line := range v {
			fmt.Fprintf(w, "    %s\n", line)
		}
	} else {
		fmt.Fprintln(w, "  contract: every expected detection made, zero false alarms, zero defended leaks")
	}
}

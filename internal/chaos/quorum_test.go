package chaos_test

import (
	"bytes"
	"testing"

	"nvariant/internal/campaign"
)

// TestQuorumCampaignSurvivesAndDetects is the acceptance scenario: from
// one seed, the K=2-of-3 groups must survive one crash and one stall at
// 100% availability, detect the divergence probe among the live
// variants, and raise zero false alarms; the N=K cells must die
// quorum-lost; the fleet cells must evict, respawn, and settle
// undegraded. Byte-identical replay is asserted by running twice (CI
// additionally replays under -race and compares with cmp).
func TestQuorumCampaignSurvivesAndDetects(t *testing.T) {
	cfg, err := campaign.Preset("quorum", 1)
	if err != nil {
		t.Fatal(err)
	}
	r1, j1 := runJSON(t, cfg)
	if v := r1.Check(); len(v) > 0 {
		t.Fatalf("quorum campaign contract violated: %v", v)
	}
	var groups, fleets []campaign.Cell
	for _, c := range r1.Cells {
		if c.Topology == campaign.Group {
			groups = append(groups, c)
		} else {
			fleets = append(fleets, c)
		}
	}
	if len(groups) != 4 {
		t.Fatalf("quorum group cells = %d, want 4 (crash/stall x survive/quorum-lost)", len(groups))
	}
	kinds := map[string]bool{}
	for _, q := range groups {
		if q.ExpectSurvive {
			if !q.Survived || q.BenignErrs != 0 {
				t.Errorf("n=%d/%s: survived=%v errs=%d, want survival at full availability",
					q.N, q.Fault, q.Survived, q.BenignErrs)
			}
			if q.MissedDetection || q.Leaked {
				t.Errorf("n=%d/%s: probe missed=%v leaked=%v", q.N, q.Fault, q.MissedDetection, q.Leaked)
			}
			kinds[q.EvictedKind] = true
		} else if q.AlarmReason != "quorum-lost" {
			t.Errorf("n=%d/%s: alarm = %q, want quorum-lost", q.N, q.Fault, q.AlarmReason)
		}
	}
	if !kinds["crash"] || !kinds["stall"] {
		t.Errorf("evicted kinds = %v, want both crash and stall", kinds)
	}
	if len(fleets) != 2 {
		t.Fatalf("quorum fleet cells = %d, want 2", len(fleets))
	}
	for _, q := range fleets {
		if q.BenignErrs != 0 || q.Evictions != 1 || q.Respawned != 1 || q.DegradedEnd != 0 {
			t.Errorf("fleet %s: %+v, want full availability with 1 eviction + 1 respawn settled", q.Fault, q)
		}
	}
	s := r1.Summary
	if s.QuorumSurvived != 2 || s.QuorumEvictions != 4 || s.QuorumRespawns != 2 {
		t.Errorf("summary quorum counters = survived %d evictions %d respawns %d, want 2/4/2",
			s.QuorumSurvived, s.QuorumEvictions, s.QuorumRespawns)
	}
	if s.FalseAlarms != 0 {
		t.Errorf("false alarms = %d, want 0", s.FalseAlarms)
	}
	// The probe detections are the re-included headline contribution.
	if s.ExpectedDetections != 2 || s.Detections != 2 {
		t.Errorf("detections = %d/%d, want 2/2", s.Detections, s.ExpectedDetections)
	}

	_, j2 := runJSON(t, cfg)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("same seed produced different quorum matrices: %s", firstDiff(j1, j2))
	}
}

package chaos_test

import (
	"bytes"
	"fmt"
	"testing"

	"nvariant/internal/obs"
)

// TestCampaignInstrumentationPreservesJSON is the determinism contract
// of the ops surface: attaching a live metrics registry to a campaign
// must not change a single byte of the seeded JSON matrix. Wall-clock
// readings (Alarm.At, metric timestamps) stay on the ops side; only
// virtual time enters the matrix.
func TestCampaignInstrumentationPreservesJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed campaign crossing")
	}
	for _, seed := range []int64{1, 7, 13} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			_, j1 := runJSON(t, smallConfig(seed))

			instrumented := smallConfig(seed)
			instrumented.Obs = obs.NewRegistry()
			_, j2 := runJSON(t, instrumented)

			if !bytes.Equal(j1, j2) {
				t.Errorf("seed %d: instrumentation changed the matrix: %s", seed, firstDiff(j1, j2))
			}

			// The registry must actually have seen traffic — a silently
			// detached registry would make the bytes-equal check vacuous.
			if got := instrumented.Obs.Counter("nvk_syscalls_total", "", obs.L("call", "exit")).Value(); got == 0 {
				t.Error("instrumented campaign recorded no syscalls")
			}
			var text bytes.Buffer
			if err := instrumented.Obs.WritePrometheus(&text); err != nil {
				t.Fatal(err)
			}
			for _, family := range []string{"nvk_syscalls_total", "fleet_dispatched_total", "simnet_messages_total", "httpd_requests_total", "nvk_evictions_total"} {
				if !bytes.Contains(text.Bytes(), []byte(family)) {
					t.Errorf("registry missing %s after instrumented campaign", family)
				}
			}
		})
	}
}

package harness

import "testing"

// TestKVSettleDuringIssue serves the full-scale workload on CAM at seed 2,
// where a session reaches settle for a batch whose issuer is still parked
// in CAM's publish, waiting for a request slot, so the batch has no handle
// yet. The run must complete and pass Verify (KVRun panics otherwise), and
// every session's decoded-token checksum must match its analytic
// expectation and the checksum SPDK serves for the same workload.
func TestKVSettleDuringIssue(t *testing.T) {
	p := KVParams{Seed: 2}
	cam, _ := KVRun(RunConfig{}, p, "CAM")
	ref, _ := KVRun(RunConfig{}, p, "SPDK")
	st := cam.Stats()
	if want := ref.Stats().DecodedTokens; st.DecodedTokens != want {
		t.Fatalf("CAM decoded %d tokens, SPDK %d", st.DecodedTokens, want)
	}
	for i := 0; i < st.Sessions; i++ {
		sum, expect := cam.SessionChecksum(i)
		if sum != expect {
			t.Errorf("session %d: checksum %#x, expected %#x", i, sum, expect)
		}
		if want, _ := ref.SessionChecksum(i); sum != want {
			t.Errorf("session %d: CAM checksum %#x, SPDK %#x", i, sum, want)
		}
	}
}

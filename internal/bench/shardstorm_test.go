package bench

import "testing"

// TestShardTrajectory asserts the sharded tier's deterministic claims:
// the rename storm converges with zero
// stale reads and no fell-behind fallbacks, every published event is
// applied on every peer, and the ring places keys with consistent-hash
// properties (bounded imbalance, ~K/N remap).
func TestShardTrajectory(t *testing.T) {
	m, err := runShardStorm(SmallScale())
	if err != nil {
		t.Fatalf("runShardStorm: %v", err)
	}
	for _, k := range []string{"shard/stale_reads", "shard/fallbacks", "shard/audit_findings", "shard/lag_after_converge"} {
		if m[k] != 0 {
			t.Errorf("%s = %.0f, want 0", k, m[k])
		}
	}
	if m["shard/published"] == 0 {
		t.Error("no coherence events published")
	}
	if want := m["shard/published"] * (m["shard/shards"] - 1); m["shard/applied"] != want {
		t.Errorf("applied = %.0f, want published*(shards-1) = %.0f", m["shard/applied"], want)
	}
	if s := m["shard/balance_max_share"]; s <= 0 || s > 0.6 {
		t.Errorf("balance_max_share = %.2f, want (0, 0.6] (ideal 1/%0.f = %.2f)",
			s, m["shard/shards"], 1/m["shard/shards"])
	}
	if f := m["shard/remap_4to5"]; f <= 0 || f > 0.45 {
		t.Errorf("remap_4to5 = %.2f, want (0, 0.45] (ideal 1/5 = 0.20)", f)
	}
}

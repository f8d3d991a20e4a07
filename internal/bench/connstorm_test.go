package bench

import "testing"

// TestConnStormTrajectory asserts the deterministic wire-level claims:
// a 64-connection cold storm over one deep path
// costs exactly one backend Lookup per component, warm walks never touch
// the backend, and a warm walk+clunk is exactly one RPC (the Twalk, which
// carries the previous walk's clunk).
func TestConnStormTrajectory(t *testing.T) {
	res, err := runConnStorm()
	if err != nil {
		t.Fatal(err)
	}
	m := res.det
	if m["storm/conns"] < 64 {
		t.Fatalf("storm ran %v conns, acceptance floor is 64", m["storm/conns"])
	}
	if m["storm/cold_errors"] != 0 {
		t.Fatalf("cold storm had %v errors", m["storm/cold_errors"])
	}
	if got, want := m["storm/cold_fs_lookups"], m["storm/components"]; got != want {
		t.Fatalf("cold storm cost %v backend Lookups for a %v-component path; "+
			"miss coalescing must hold it to exactly one per component", got, want)
	}
	if m["storm/warm_fs_lookups"] != 0 {
		t.Fatalf("warm walks reached the backend %v times", m["storm/warm_fs_lookups"])
	}
	if m["storm/rpcs_per_walk"] != 1 {
		t.Fatalf("warm walk+clunk costs %v RPCs, want exactly 1 (a Twalk carrying the previous clunk)", m["storm/rpcs_per_walk"])
	}
}

package check

import (
	"encoding/json"
	"runtime"
	"testing"
)

// A trace whose node count disagrees with its x0 list must be rejected
// before its graph is built: this ~90-byte trace once made Replay allocate
// an 800 MB graph first (8 GB at nodes = 2·10^9).
func TestReplayChecksX0BeforeBuild(t *testing.T) {
	var tr Trace
	in := `{"graph":{"nodes":200000000},"x0":[],"rule":{"kind":"vanilla"},"actions":[]}`
	if err := json.Unmarshal([]byte(in), &tr); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Replay(&tr)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Replay accepted 0 initial values for 2e8 nodes")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("Replay allocated %d bytes before rejecting the trace: %v", d, err)
	}
}

// An edge endpoint outside the node range must be rejected, not wrapped
// into range by the conversion to a NodeID: 2^32 once replayed as node 0.
func TestReplayRejectsOutOfRangeEdge(t *testing.T) {
	for _, u := range []string{"4294967296", "-1", "2"} {
		var tr Trace
		in := `{"graph":{"nodes":2,"edge_u":[` + u + `],"edge_v":[1]},"x0":[1,3],"rule":{"kind":"vanilla"},"actions":[]}`
		if err := json.Unmarshal([]byte(in), &tr); err != nil {
			t.Fatal(err)
		}
		if _, err := Replay(&tr); err == nil {
			t.Errorf("edge_u %s: Replay accepted an endpoint outside 2 nodes", u)
		}
	}
}

package scenario

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestResolveSharded covers the Stop.Shards routing: implicit families
// resolve onto the sharded path with the same node count, defaults and
// init vector as the materialised path, and unsupported combinations are
// rejected with a useful error.
func TestResolveSharded(t *testing.T) {
	for _, fam := range []string{"dumbbell", "ringofcliques"} {
		spec := Spec{Graph: GraphSpec{Family: fam, N: 48}, Stop: StopSpec{Shards: 4, Trials: 2}}
		res, err := spec.Resolve()
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if res.Implicit == nil || res.Graph != nil {
			t.Fatalf("%s: sharded resolve did not populate Implicit", fam)
		}
		if res.NumNodes() != res.Implicit.NumNodes() || len(res.X0) != res.NumNodes() {
			t.Fatalf("%s: node accounting mismatch", fam)
		}
		// The materialised resolve of the same spec must agree on shape
		// and initial vector (both paths derive the same streams).
		plain := spec
		plain.Stop.Shards = 0
		pres, err := plain.Resolve()
		if err != nil {
			t.Fatalf("%s plain: %v", fam, err)
		}
		if pres.Graph.NumNodes() != res.NumNodes() {
			t.Fatalf("%s: sharded n=%d, materialised n=%d", fam, res.NumNodes(), pres.Graph.NumNodes())
		}
		// Worst-case init identical on both paths.
		if !reflect.DeepEqual(pres.X0, res.X0) {
			t.Fatalf("%s: init vector differs between paths", fam)
		}
	}

	// Families without an implicit builder are rejected, and the error
	// names exactly the families that have one.
	for _, fam := range []string{"torusdumbbell", "planted", "sensor", "complete", "path", "cycle"} {
		spec := Spec{Graph: GraphSpec{Family: fam, N: 48}, Stop: StopSpec{Shards: 4, Trials: 2}}
		_, err := spec.Resolve()
		if err == nil {
			t.Fatalf("%s: sharded resolve accepted a family without an implicit builder", fam)
		}
		if !strings.HasSuffix(err.Error(), "(shards require one of: dumbbell, ringofcliques)") {
			t.Errorf("%s: error %q does not name exactly dumbbell and ringofcliques", fam, err)
		}
	}

	bad := []Spec{
		{Graph: GraphSpec{Family: "dumbbell", N: 16}, Algo: AlgoSpec{Name: "A"}, Stop: StopSpec{Shards: 2}},
		{Graph: GraphSpec{Family: "dumbbell", N: 16}, Rates: "nodeclock", Stop: StopSpec{Shards: 2}},
	}
	for i, spec := range bad {
		if _, err := spec.Resolve(); err == nil {
			t.Errorf("bad spec %d: expected error", i)
		}
	}
}

// TestShardedEstimateMatchesOracleScale runs the full scenario pipeline
// on both paths for the same spec/seed: the sharded Tav must land within
// a factor of the batched oracle's (distribution-level agreement is
// pinned by the avgtime KS tests; this is the wiring check).
func TestShardedEstimateMatchesOracleScale(t *testing.T) {
	base := Spec{
		Graph: GraphSpec{Family: "dumbbell", N: 32, Cut: 1},
		Stop:  StopSpec{Trials: 7},
		Seed:  5,
	}
	sharded := base
	sharded.Stop.Shards = 4
	sharded.Stop.Window = 0.25
	sres, err := sharded.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	sr, err := sres.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	ores, err := base.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	or, err := ores.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Censored != 0 || or.Censored != 0 {
		t.Fatalf("unexpected censoring: sharded %d, oracle %d", sr.Censored, or.Censored)
	}
	if ratio := sr.Tav / or.Tav; math.IsNaN(ratio) || ratio < 1/2.5 || ratio > 2.5 {
		t.Fatalf("sharded Tav %v vs oracle %v (ratio %.2f) outside tolerance", sr.Tav, or.Tav, sr.Tav/or.Tav)
	}
	// Shard count is wall-clock only: the estimate is byte-identical.
	again := sharded
	again.Stop.Shards = 1
	ares, err := again.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	ar, err := ares.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sr, ar) {
		t.Fatalf("shards=4 and shards=1 estimates differ:\n%+v\nvs\n%+v", sr, ar)
	}
}

// TestShardedLabel pins the shards marker in cell labels.
func TestShardedLabel(t *testing.T) {
	s := Spec{Graph: GraphSpec{Family: "dumbbell", N: 64, Cut: 2}, Algo: AlgoSpec{Name: "vanilla"},
		Stop: StopSpec{Shards: 8}}
	if l := s.Label(); !strings.Contains(l, "/shards=8") {
		t.Fatalf("label %q missing shards marker", l)
	}
}

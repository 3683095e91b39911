package check

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"sparsecut/internal/dist"
)

// TestRegenerateFuzzCorpus rewrites testdata/fuzz/FuzzSchedule from the
// current mutation counterexamples. Opt-in (it modifies the tree): run
// with CHECK_REGEN_CORPUS=1 after changing the protocol, the invariants
// or the action alphabet, and commit the result.
func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("CHECK_REGEN_CORPUS") == "" {
		t.Skip("set CHECK_REGEN_CORPUS=1 to regenerate the committed fuzz seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSchedule")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	fspec, fopt := fuzzSystem()
	for _, mu := range []dist.Mutation{
		dist.MutNackRollbackApplies,
		dist.MutStaleProposalApply,
		dist.MutCommitIgnoresSeq,
		dist.MutNackRoleConfusion,
		dist.MutLaxWatermarkDedup,
	} {
		spec := triangleSpec()
		opt := faultOptions(12)
		opt.Mutation = mu
		res, err := Exhaustive(spec, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Counterexample == nil {
			t.Fatalf("mutation %s produced no counterexample", mu)
		}
		sched, err := encodeSchedule(fspec, fopt, res.Counterexample.Actions)
		if err != nil {
			t.Fatalf("%s: %v", mu, err)
		}
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(sched)) + ")\n"
		path := filepath.Join(dir, "cex-"+mu.String())
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d schedule bytes -> %s", mu, len(sched), path)
	}
}

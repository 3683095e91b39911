package check

import (
	"encoding/json"
	"fmt"
	"testing"

	"sparsecut/internal/dist"
	"sparsecut/internal/graph"
)

// fuzzSystem is the fixed system FuzzSchedule drives: the 3-node clique
// with the correct (unmutated) protocol and budgets looser than the
// exhaustive tests', so the fuzzer can reach schedule shapes the bounded
// DFS does not.
func fuzzSystem() (Spec, Options) {
	spec := Spec{Graph: graph.Complete(3), X0: []float64{1, 5, 0}, Rule: Vanilla()}
	opt := Options{
		MaxDepth:       64,
		MaxInitiations: 5,
		MaxDups:        3,
		MaxResends:     3,
		MaxCrashes:     3,
		Drops:          true,
		Dups:           true,
		Crashes:        true,
	}
	return spec, opt
}

// FuzzSchedule fuzzes the schedule byte-string: byte i picks among the
// actions enabled at step i. Any invariant violation is a real protocol
// bug (no mutation is seeded here — this target found nothing only after
// the two seed bugs MutNackRoleConfusion and MutLaxWatermarkDedup were
// fixed). The committed corpus under testdata/fuzz/FuzzSchedule is the
// mutation counterexamples of TestMutationsCaught re-encoded by
// encodeSchedule — counterexample traces double as fuzz seeds.
func FuzzSchedule(f *testing.F) {
	spec, opt := fuzzSystem()
	// A plain committed exchange and a NACK/timeout path, as inline seeds.
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 1, 2, 0, 1, 0, 0, 0, 1, 2})
	f.Fuzz(func(t *testing.T, schedule []byte) {
		if len(schedule) > 96 {
			schedule = schedule[:96]
		}
		actions, v, err := runSchedule(spec, opt, schedule)
		if err != nil {
			t.Fatalf("schedule did not run: %v", err)
		}
		if v != nil {
			tr := newTrace(spec, opt, actions, v)
			b, _ := json.MarshalIndent(tr, "", "  ")
			t.Fatalf("invariant violation in the correct protocol: %v\ncounterexample trace:\n%s", v, b)
		}
	})
}

// FuzzReplayTrace fuzzes Replay, the decoder behind mcheck -replay: any
// bytes that decode as a Trace must replay or fail with an error, never
// panic or allocate beyond the input's own size. The action list is capped
// so one input stays fast. The committed corpus under
// testdata/fuzz/FuzzReplayTrace holds a vanilla and a sparse-cut
// counterexample trace and a trace whose node count disagrees with x0.
func FuzzReplayTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var tr Trace
		if json.Unmarshal(data, &tr) != nil {
			return
		}
		if len(tr.Actions) > 64 {
			tr.Actions = tr.Actions[:64]
		}
		Replay(&tr)
	})
}

// TestFuzzSeedsFromCounterexamples regenerates the committed seed corpus'
// content in-process: every mutation counterexample, re-encoded under the
// fuzz target's own options, must drive the fuzz system cleanly (the bug
// needs its mutation) while steering it down the once-buggy path. This
// keeps the committed corpus honest without checking generated files in
// tests.
func TestFuzzSeedsFromCounterexamples(t *testing.T) {
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
		// Re-encode the counterexample's schedule under the fuzz target's
		// options (the seed-corpus encoding).
		sched, err := encodeSchedule(fspec, fopt, res.Counterexample.Actions)
		if err != nil {
			t.Fatalf("%s: counterexample does not encode under fuzz options: %v", mu, err)
		}
		if _, v, err := runSchedule(fspec, fopt, sched); err != nil || v != nil {
			t.Fatalf("%s: seed schedule must be clean on the correct protocol, got v=%v err=%v", mu, v, err)
		}
	}
}

// runSchedule drives one world by a schedule byte-string: byte i selects
// among the actions enabled at step i (index modulo their count). The
// schedule ends at its last byte or when no action is enabled. This is the
// decoder the fuzz harness uses; counterexample traces re-encode into the
// same format via encodeSchedule to seed its corpus. Returns the actions
// taken and the violation, if any.
func runSchedule(spec Spec, opt Options, schedule []byte) ([]Action, *Violation, error) {
	opt = opt.withDefaults()
	w, err := newWorld(spec, opt)
	if err != nil {
		return nil, nil, err
	}
	var path []Action
	for _, b := range schedule {
		acts := w.enabled()
		if len(acts) == 0 {
			break
		}
		a := acts[int(b)%len(acts)]
		path = append(path, a)
		if err := w.apply(a); err != nil {
			if v, ok := err.(*Violation); ok {
				return path, v, nil
			}
			return path, nil, err
		}
	}
	return path, nil, nil
}

// encodeSchedule re-expresses an action sequence as a schedule byte-string
// (the inverse of runSchedule's decoding): byte i is the index of action i
// in the enabled-action list at that step. It fails if an action is not
// enabled at its step under opt's budgets.
func encodeSchedule(spec Spec, opt Options, actions []Action) ([]byte, error) {
	opt = opt.withDefaults()
	w, err := newWorld(spec, opt)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(actions))
	for i, a := range actions {
		idx := -1
		for j, b := range w.enabled() {
			if a.same(b) {
				idx = j
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("check: action %d (%s) is not enabled at its step", i, a.Op)
		}
		if idx > 255 {
			return nil, fmt.Errorf("check: enabled-action index %d does not fit a schedule byte", idx)
		}
		out = append(out, byte(idx))
		if err := w.apply(a); err != nil {
			if _, ok := err.(*Violation); ok && i == len(actions)-1 {
				break // the recorded violation, at the recorded last step
			}
			return nil, err
		}
	}
	return out, nil
}

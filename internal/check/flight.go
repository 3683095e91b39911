package check

import (
	"sparsecut/internal/flight"
)

// ReplayFlight re-executes tr's schedule exactly like Replay, recording
// every protocol step into rec through dist.Machine.Step, as the live
// runtime does — so a model-checker counterexample renders as the same
// span trees as a production capture (cmd/mcheck -flight, cmd/tracez). Timestamps are the replay's virtual ticks and the
// replay is single-threaded, so for a given trace the recorder's dump is
// fully deterministic: two replays encode to byte-identical files.
//
// Size rec with at least as many rings as the trace's nodes (records from
// out-of-range nodes fold into ring 0). A nil rec degrades to plain
// Replay.
func ReplayFlight(tr *Trace, rec *flight.Recorder) (*Violation, error) {
	spec, opt, err := tr.specAndOptions()
	if err != nil {
		return nil, err
	}
	w, err := newWorld(spec, opt)
	if err != nil {
		return nil, err
	}
	w.rec = rec
	for _, a := range tr.Actions {
		if err := w.apply(a); err != nil {
			if v, ok := err.(*Violation); ok {
				return v, nil
			}
			return nil, err
		}
	}
	return nil, nil
}

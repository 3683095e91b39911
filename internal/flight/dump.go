package flight

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// DumpVersion is the current dump schema version.
const DumpVersion = 1

// Dump is a serialized flight capture: the merged per-node rings in
// recorder-global arrival order. Its JSON encoding is a byte-deterministic
// function of the content — encoding the same dump twice yields identical
// bytes, and decode∘encode is the identity — so dumps from deterministic
// producers (the model checker's replayer) byte-diff clean across runs.
type Dump struct {
	Version int `json:"version"`
	// Nodes and RingCap record the recorder geometry.
	Nodes   int `json:"nodes"`
	RingCap int `json:"ring_cap"`
	// Overwritten counts records lost to ring wrap-around — the flight
	// recorder's explicit "history was truncated" marker.
	Overwritten int64 `json:"overwritten,omitempty"`
	// Events is the merged record stream, in recorder arrival order.
	Events []Record `json:"events"`
}

// WriteJSON writes the dump as compact one-record-per-line JSON: stable
// field order (struct order), no map iteration anywhere, trailing newline.
func (d *Dump) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\n  \"version\": %d,\n  \"nodes\": %d,\n  \"ring_cap\": %d,\n", d.Version, d.Nodes, d.RingCap)
	if d.Overwritten != 0 {
		fmt.Fprintf(bw, "  \"overwritten\": %d,\n", d.Overwritten)
	}
	fmt.Fprintf(bw, "  \"events\": [")
	for i := range d.Events {
		line, err := json.Marshal(&d.Events[i])
		if err != nil {
			return fmt.Errorf("flight: encoding record %d: %w", i, err)
		}
		if i > 0 {
			bw.WriteString(",")
		}
		bw.WriteString("\n    ")
		bw.Write(line)
	}
	if len(d.Events) > 0 {
		bw.WriteString("\n  ")
	}
	bw.WriteString("]\n}\n")
	return bw.Flush()
}

// ReadDump parses a JSON dump from r. The dump must be the only value in
// r, up to whitespace.
func ReadDump(r io.Reader) (*Dump, error) {
	d := new(Dump)
	dec := json.NewDecoder(r)
	if err := dec.Decode(d); err != nil {
		return nil, fmt.Errorf("flight: parsing JSON dump: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("flight: parsing JSON dump: trailing data after the dump")
	}
	return d, d.validate()
}

func (d *Dump) validate() error {
	if d.Version != DumpVersion {
		return fmt.Errorf("flight: dump version %d, this build reads %d", d.Version, DumpVersion)
	}
	return nil
}

// WriteFile writes the dump to path as JSON.
func (d *Dump) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = d.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadFile loads a dump written by WriteFile.
func ReadFile(path string) (*Dump, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadDump(f)
}

package flight

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// DumpVersion is the current dump schema version (both encodings).
const DumpVersion = 1

// binaryMagic opens every binary dump; readers auto-detect the format by
// it (JSON dumps start with '{').
var binaryMagic = [4]byte{'S', 'C', 'F', 'R'}

// recordSize is the fixed on-disk size of one binary record.
const recordSize = 48

// Dump is a serialized flight capture: the merged per-node rings in
// recorder-global arrival order. Both encodings are byte-deterministic
// functions of the content — encoding the same dump twice yields identical
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

// sortRecords restores recorder-global arrival order after a multi-ring
// merge. Records decoded from a dump (gseq zero) keep their stream order.
func sortRecords(recs []Record) {
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].gseq < recs[j].gseq })
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

// WriteBinary writes the dump in the fixed binary framing: magic, header,
// then one 48-byte little-endian record per event.
func (d *Dump) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.Write(binaryMagic[:])
	var hdr [28]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(d.Version))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(d.Nodes))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(d.RingCap))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(d.Overwritten))
	binary.LittleEndian.PutUint64(hdr[20:], uint64(len(d.Events)))
	bw.Write(hdr[:])
	var buf [recordSize]byte
	for i := range d.Events {
		encodeRecord(&buf, &d.Events[i])
		bw.Write(buf[:])
	}
	return bw.Flush()
}

func encodeRecord(buf *[recordSize]byte, r *Record) {
	binary.LittleEndian.PutUint64(buf[0:], uint64(r.TimeNs))
	binary.LittleEndian.PutUint64(buf[8:], r.Seq)
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(r.X))
	binary.LittleEndian.PutUint32(buf[24:], uint32(r.Init))
	binary.LittleEndian.PutUint32(buf[28:], uint32(r.Node))
	binary.LittleEndian.PutUint32(buf[32:], uint32(r.Peer))
	binary.LittleEndian.PutUint32(buf[36:], uint32(r.Edge))
	buf[40] = byte(r.Kind)
	buf[41] = r.Msg
	buf[42] = r.Re
	buf[43] = r.Flags
	buf[44], buf[45], buf[46], buf[47] = 0, 0, 0, 0
}

func decodeRecord(buf *[recordSize]byte) Record {
	return Record{
		TimeNs: int64(binary.LittleEndian.Uint64(buf[0:])),
		Seq:    binary.LittleEndian.Uint64(buf[8:]),
		X:      math.Float64frombits(binary.LittleEndian.Uint64(buf[16:])),
		Init:   int32(binary.LittleEndian.Uint32(buf[24:])),
		Node:   int32(binary.LittleEndian.Uint32(buf[28:])),
		Peer:   int32(binary.LittleEndian.Uint32(buf[32:])),
		Edge:   int32(binary.LittleEndian.Uint32(buf[36:])),
		Kind:   EventKind(buf[40]),
		Msg:    buf[41],
		Re:     buf[42],
		Flags:  buf[43],
	}
}

// ReadDump parses a dump from r, auto-detecting the encoding by its first
// bytes (binary magic vs JSON). A JSON dump must be the only value in r,
// up to whitespace.
func ReadDump(r io.Reader) (*Dump, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("flight: reading dump header: %w", err)
	}
	if [4]byte(head) == binaryMagic {
		return readBinary(br)
	}
	d := new(Dump)
	dec := json.NewDecoder(br)
	if err := dec.Decode(d); err != nil {
		return nil, fmt.Errorf("flight: parsing JSON dump: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("flight: parsing JSON dump: trailing data after the dump")
	}
	return d, d.validate()
}

func readBinary(br *bufio.Reader) (*Dump, error) {
	var hdr [4 + 28]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("flight: reading binary header: %w", err)
	}
	d := &Dump{
		Version:     int(binary.LittleEndian.Uint32(hdr[4:])),
		Nodes:       int(binary.LittleEndian.Uint32(hdr[8:])),
		RingCap:     int(binary.LittleEndian.Uint32(hdr[12:])),
		Overwritten: int64(binary.LittleEndian.Uint64(hdr[16:])),
	}
	count := binary.LittleEndian.Uint64(hdr[24:])
	const maxRecords = 1 << 28 // 12 GiB of records; anything past this is a corrupt count
	if count > maxRecords {
		return nil, fmt.Errorf("flight: binary dump claims %d records", count)
	}
	// The count is only a claim until the records arrive: preallocate for
	// at most 1<<16 of them and let append grow past that, so a header
	// naming 2^28 records costs an error, not 12 GiB.
	d.Events = make([]Record, 0, min(count, 1<<16))
	var buf [recordSize]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("flight: reading record %d of %d: %w", i, count, err)
		}
		d.Events = append(d.Events, decodeRecord(&buf))
	}
	return d, d.validate()
}

func (d *Dump) validate() error {
	if d.Version != DumpVersion {
		return fmt.Errorf("flight: dump version %d, this build reads %d", d.Version, DumpVersion)
	}
	return nil
}

// WriteFile writes the dump to path: JSON when the name ends in ".json",
// the binary framing otherwise.
func (d *Dump) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if len(path) >= 5 && path[len(path)-5:] == ".json" {
		err = d.WriteJSON(f)
	} else {
		err = d.WriteBinary(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadFile loads a dump written by WriteFile (either encoding).
func ReadFile(path string) (*Dump, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadDump(f)
}

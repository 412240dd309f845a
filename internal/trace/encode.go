package trace

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Binary serialization of operand traces, the job server's most valuable
// content-addressed intermediate: collecting a trace replays every
// injection-source workload on the simulator, while loading one back is a
// single file read. The format is deliberately trivial — a versioned header,
// then per unit (sorted by name, so equal traces marshal to equal bytes) the
// tuple list as little-endian uint64s. JSON is avoided on purpose: operand
// values are raw 64-bit patterns and would lose precision as JSON numbers.

const traceMagic = "SWTR1\n"

// MarshalBinary encodes the trace. Equal traces (same tuples per unit, same
// limit) produce identical bytes; a unit without tuples is left out.
func (t *OperandTrace) MarshalBinary() ([]byte, error) {
	var units []string
	for u, tuples := range t.units {
		if len(tuples) > 0 {
			units = append(units, unitNames[u])
		}
	}
	sort.Strings(units)

	var out []byte
	out = append(out, traceMagic...)
	out = binary.AppendUvarint(out, uint64(t.limit))
	out = binary.AppendUvarint(out, uint64(len(units)))
	for _, u := range units {
		out = binary.AppendUvarint(out, uint64(len(u)))
		out = append(out, u...)
		tuples := t.Tuples(u)
		out = binary.AppendUvarint(out, uint64(len(tuples)))
		for _, tup := range tuples {
			out = binary.AppendUvarint(out, uint64(len(tup)))
			for _, v := range tup {
				out = binary.LittleEndian.AppendUint64(out, v)
			}
		}
	}
	return out, nil
}

// UnmarshalBinary decodes a trace encoded by MarshalBinary, replacing the
// receiver's tuples and limit; on error the receiver is unchanged. Corrupt
// input returns an error, never a panic: a unit, tuple or operand count is
// checked against the bytes left before anything is sized from it (every
// unit takes at least two bytes, every tuple at least one, every operand
// eight), and a unit name no traced unit has is refused.
func (t *OperandTrace) UnmarshalBinary(data []byte) error {
	if len(data) < len(traceMagic) || string(data[:len(traceMagic)]) != traceMagic {
		return fmt.Errorf("trace: bad magic")
	}
	data = data[len(traceMagic):]
	uvarint := func() (uint64, error) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, fmt.Errorf("trace: truncated varint")
		}
		data = data[n:]
		return v, nil
	}
	limit, err := uvarint()
	if err != nil {
		return err
	}
	nUnits, err := uvarint()
	if err != nil {
		return err
	}
	if nUnits > uint64(len(data))/2 {
		return fmt.Errorf("trace: %d units in %d bytes", nUnits, len(data))
	}
	var units [len(unitNames)][][]uint64
	for u := uint64(0); u < nUnits; u++ {
		nameLen, err := uvarint()
		if err != nil {
			return err
		}
		if uint64(len(data)) < nameLen {
			return fmt.Errorf("trace: truncated unit name")
		}
		name := string(data[:nameLen])
		data = data[nameLen:]
		idx := unitIndex(name)
		if idx < 0 {
			return fmt.Errorf("trace: unknown unit %q", name)
		}
		nTuples, err := uvarint()
		if err != nil {
			return err
		}
		if nTuples > uint64(len(data)) {
			return fmt.Errorf("trace: unit %q: %d tuples in %d bytes", name, nTuples, len(data))
		}
		var tuples [][]uint64
		if nTuples > 0 {
			tuples = make([][]uint64, 0, nTuples)
		}
		for i := uint64(0); i < nTuples; i++ {
			width, err := uvarint()
			if err != nil {
				return err
			}
			if width > uint64(len(data))/8 {
				return fmt.Errorf("trace: truncated tuple")
			}
			tup := make([]uint64, width)
			for k := range tup {
				tup[k] = binary.LittleEndian.Uint64(data)
				data = data[8:]
			}
			tuples = append(tuples, tup)
		}
		units[idx] = tuples
	}
	if len(data) != 0 {
		return fmt.Errorf("trace: %d trailing bytes", len(data))
	}
	t.units, t.limit = units, int(limit)
	return nil
}

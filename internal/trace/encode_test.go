package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// craftedTraces are encodings whose counts no input of their length can
// hold: one unit claiming 2^62 tuples, and one tuple claiming 2^61
// operands, whose 8-byte-per-operand size overflows 64 bits. The unit is a
// real one, so the decoder reaches the counts.
func craftedTraces() map[string][]byte {
	head := func(counts ...uint64) []byte {
		b := []byte(traceMagic)
		b = binary.AppendUvarint(b, 1) // limit
		b = binary.AppendUvarint(b, 1) // one unit
		b = binary.AppendUvarint(b, uint64(len(UnitFpAdd32)))
		b = append(b, UnitFpAdd32...)
		for _, c := range counts {
			b = binary.AppendUvarint(b, c)
		}
		return b
	}
	return map[string][]byte{
		"tuples=2^62": head(1 << 62),
		"width=2^61":  head(1, 1<<61),
	}
}

// TestUnmarshalRejectsImpossibleCounts: a count the remaining bytes cannot
// hold is an error, not a slice sized from it (which panics).
func TestUnmarshalRejectsImpossibleCounts(t *testing.T) {
	for name, b := range craftedTraces() {
		if err := NewOperandTrace(0).UnmarshalBinary(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// FuzzOperandTraceUnmarshal: no input panics the decoder, and any input
// it accepts re-marshals to bytes that decode to an equal trace.
func FuzzOperandTraceUnmarshal(f *testing.F) {
	b, err := kernelTrace(f, 100).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	for _, c := range craftedTraces() {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		first := NewOperandTrace(0)
		if err := first.UnmarshalBinary(data); err != nil {
			return
		}
		again, err := first.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		second := NewOperandTrace(0)
		if err := second.UnmarshalBinary(again); err != nil {
			t.Fatalf("re-marshalled trace does not decode: %v", err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatal("decode(marshal(decode(data))) differs from decode(data)")
		}
		if third, _ := second.MarshalBinary(); !bytes.Equal(third, again) {
			t.Fatal("equal traces marshal to different bytes")
		}
	})
}

// TestUnmarshalFailureLeavesTrace: a decode that fails part-way leaves the
// receiver as it was, so a caller can fall back to collecting into it; a
// unit name no traced unit has is refused.
func TestUnmarshalFailureLeavesTrace(t *testing.T) {
	tr := kernelTrace(t, 100)
	before, err := tr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	good, err := kernelTrace(t, 7).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	unknown := []byte(traceMagic)
	unknown = binary.AppendUvarint(unknown, 1) // limit
	unknown = binary.AppendUvarint(unknown, 1) // one unit
	unknown = binary.AppendUvarint(unknown, 1)
	unknown = append(unknown, 'u')
	unknown = binary.AppendUvarint(unknown, 0) // no tuples
	for name, b := range map[string][]byte{"truncated": good[:len(good)-3], "unknown unit": unknown} {
		if err := tr.UnmarshalBinary(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if after, _ := tr.MarshalBinary(); !bytes.Equal(after, before) {
			t.Errorf("%s: failed decode changed the trace", name)
		}
	}
}

package trace_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/epvf"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/trace"
)

// The saved columns, in format order.
const (
	colInstrID = iota
	colResult
	colAcc
	colOpBase
	colOps
	colOpDefs
	colAddr
	colSP
	colMemDef
	colVMAVer
	numCols
)

// unsignedCol marks the columns the format writes as uvarints.
var unsignedCol = [numCols]bool{colResult: true, colOps: true, colAddr: true, colSP: true}

// savedTrace is a saved trace split into the parts Load validates, so a
// test can write what the recorder never would: head is every byte before
// the columns and tail every byte after the outputs.
type savedTrace struct {
	head []byte
	// cols holds the ten columns as written, an unsigned column's entries
	// bit-cast to int64: Ops is every slot's value, and OpDefs marks a
	// slot without a def by NoDef.
	cols    [numCols][]int64
	outputs []trace.Output
	tail    []byte
}

// splitSaved parses the bytes Save writes.
func splitSaved(t testing.TB, data []byte) *savedTrace {
	t.Helper()
	b := data[len("epvf-trace\n"):]
	next := func(signed bool) int64 {
		var v int64
		var n int
		if signed {
			v, n = binary.Varint(b)
		} else {
			var u uint64
			u, n = binary.Uvarint(b)
			v = int64(u)
		}
		if n <= 0 {
			t.Fatal("splitSaved: malformed varint")
		}
		b = b[n:]
		return v
	}
	next(false)         // version
	b = b[next(false):] // module name
	next(false)         // static instruction count
	for range 7 {
		next(false)
	}
	next(true) // initial stack pages
	st := &savedTrace{head: data[:len(data)-len(b)]}
	for c := range st.cols {
		st.cols[c] = make([]int64, next(false))
		for i := range st.cols[c] {
			st.cols[c][i] = next(!unsignedCol[c])
		}
	}
	st.outputs = make([]trace.Output, next(false))
	for i := range st.outputs {
		st.outputs[i] = trace.Output{EventIdx: next(true), Def: next(true), Bits: uint64(next(false)), Width: int(next(true))}
	}
	st.tail = b
	return st
}

// bytes reassembles the saved trace.
func (st *savedTrace) bytes() []byte {
	out := slices.Clone(st.head)
	for c, col := range st.cols {
		out = binary.AppendUvarint(out, uint64(len(col)))
		for _, v := range col {
			if unsignedCol[c] {
				out = binary.AppendUvarint(out, uint64(v))
			} else {
				out = binary.AppendVarint(out, v)
			}
		}
	}
	out = binary.AppendUvarint(out, uint64(len(st.outputs)))
	for _, o := range st.outputs {
		out = binary.AppendVarint(out, o.EventIdx)
		out = binary.AppendVarint(out, o.Def)
		out = binary.AppendUvarint(out, o.Bits)
		out = binary.AppendVarint(out, int64(o.Width))
	}
	return append(out, st.tail...)
}

// corruptions are the saved-trace defects Load must reject: each would
// otherwise index past a column, misalign operand slots, or change an
// operand's value once the trace is loaded. Each edits the saved form of
// tr, looking events up in tr.
var corruptions = []struct {
	name   string
	mutate func(tr *trace.Trace, st *savedTrace)
}{
	{"forward operand def", func(tr *trace.Trace, st *savedTrace) {
		ev := firstEvent(tr, func(ev int64) bool { return len(tr.OpDefsOf(ev)) > 0 })
		st.cols[colOpDefs][tr.OpBase[ev]] = tr.NumEvents() + 5
	}},
	{"forward memory def", func(tr *trace.Trace, st *savedTrace) {
		ev := firstEvent(tr, func(ev int64) bool { return tr.Instr(ev).Op == ir.OpLoad })
		st.cols[colMemDef][tr.Acc[ev]] = tr.NumEvents() + 5
	}},
	{"extra operand", func(tr *trace.Trace, st *savedTrace) {
		// Event 0 records one operand more than its instruction has.
		at := tr.OpBase[1]
		st.cols[colOps] = slices.Insert(st.cols[colOps], int(at), 0)
		st.cols[colOpDefs] = slices.Insert(st.cols[colOpDefs], int(at), trace.NoDef)
		for i := 1; i < len(st.cols[colOpBase]); i++ {
			st.cols[colOpBase][i]++
		}
	}},
	{"forward output def", func(tr *trace.Trace, st *savedTrace) {
		st.outputs[0].Def = st.outputs[0].EventIdx
	}},
	{"output past the last event", func(tr *trace.Trace, st *savedTrace) {
		st.outputs[0].EventIdx = tr.NumEvents()
	}},
	{"short column", func(tr *trace.Trace, st *savedTrace) {
		st.cols[colResult] = st.cols[colResult][:len(st.cols[colResult])-1]
	}},
	{"non-monotone operand offsets", func(tr *trace.Trace, st *savedTrace) {
		ev := firstEvent(tr, func(ev int64) bool { return len(tr.OpDefsOf(ev)) > 0 })
		st.cols[colOpBase][ev+1] = int64(tr.OpBase[ev]) - 1
	}},
	{"instruction ID out of range", func(tr *trace.Trace, st *savedTrace) {
		st.cols[colInstrID][0] = int64(tr.Module.NumInstrs())
	}},
	{"load with no access entry", func(tr *trace.Trace, st *savedTrace) {
		ev := firstEvent(tr, func(ev int64) bool { return tr.Instr(ev).Op == ir.OpLoad })
		st.cols[colAcc][ev] = -1
	}},
	{"repeated access number", func(tr *trace.Trace, st *savedTrace) {
		first := firstEvent(tr, tr.IsMemAccess)
		next := firstEvent(tr, func(ev int64) bool { return ev > first && tr.IsMemAccess(ev) })
		st.cols[colAcc][next] = int64(tr.Acc[first])
	}},
	{"operand value differs from its def's result", func(tr *trace.Trace, st *savedTrace) {
		flipDefinedOperand(tr, st)
	}},
	{"operand def outside int32", func(tr *trace.Trace, st *savedTrace) {
		// Truncated to 32 bits, the entry would read as its real def.
		ev, op := definedOperand(tr)
		st.cols[colOpDefs][int(tr.OpBase[ev])+op] += 1 << 32
	}},
	{"memory def outside int32", func(tr *trace.Trace, st *savedTrace) {
		ev := firstEvent(tr, func(ev int64) bool { return tr.Instr(ev).Op == ir.OpLoad })
		st.cols[colMemDef][tr.Acc[ev]] += 1 << 32
	}},
}

// definedOperand returns the first operand of tr that has a def.
func definedOperand(tr *trace.Trace) (ev int64, op int) {
	ev = firstEvent(tr, func(ev int64) bool { return slices.ContainsFunc(tr.OpDefsOf(ev), isDef) })
	return ev, slices.IndexFunc(tr.OpDefsOf(ev), isDef)
}

func isDef(d int32) bool { return d >= 0 }

// flipDefinedOperand flips the low bit of the saved value of tr's first
// operand with a def, and returns that operand.
func flipDefinedOperand(tr *trace.Trace, st *savedTrace) (ev int64, op int) {
	ev, op = definedOperand(tr)
	st.cols[colOps][int(tr.OpBase[ev])+op] ^= 1
	return ev, op
}

func firstEvent(tr *trace.Trace, ok func(ev int64) bool) int64 {
	for ev := range tr.NumEvents() {
		if ok(ev) {
			return ev
		}
	}
	panic("no matching event")
}

// fuzzKernel is kernel with shorter loops, so fuzz inputs stay small.
const fuzzKernel = `
void main() {
  long *a = malloc(3 * 8);
  int i;
  for (i = 0; i < 3; i = i + 1) { a[i] = i * 9; }
  long s = 0;
  for (i = 0; i < 3; i = i + 1) { s = s + a[i]; }
  output(s);
  free(a);
}
`

// saved returns the recorded trace of src as Save writes it, after
// applying mutate to the saved form (nil keeps it as recorded).
func saved(t testing.TB, src string, mutate func(*trace.Trace, *savedTrace)) []byte {
	t.Helper()
	tr := record(t, src)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if mutate == nil {
		return buf.Bytes()
	}
	st := splitSaved(t, buf.Bytes())
	if !bytes.Equal(st.bytes(), buf.Bytes()) {
		t.Fatal("splitSaved does not reassemble the saved bytes")
	}
	mutate(tr, st)
	return st.bytes()
}

func TestLoadRejectsCorruptTraces(t *testing.T) {
	m, err := lang.Compile("serial", kernel)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range corruptions {
		if _, err := trace.Load(bytes.NewReader(saved(t, kernel, c.mutate)), m); err == nil {
			t.Errorf("%s: Load accepted the corrupt trace", c.name)
		}
	}
}

// TestLoadNamesMismatchedOperand: an operand whose saved value is not its
// def's result is rejected with an error naming the event and operand.
func TestLoadNamesMismatchedOperand(t *testing.T) {
	m, err := lang.Compile("serial", kernel)
	if err != nil {
		t.Fatal(err)
	}
	var ev int64
	var op int
	data := saved(t, kernel, func(tr *trace.Trace, st *savedTrace) { ev, op = flipDefinedOperand(tr, st) })
	_, err = trace.Load(bytes.NewReader(data), m)
	if want := fmt.Sprintf("event %d operand %d", ev, op); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Load error %v, want one naming %q", err, want)
	}
}

// FuzzLoad: whatever bytes Load accepts must analyze without panicking,
// and no input may make Load itself panic.
func FuzzLoad(f *testing.F) {
	m, err := lang.Compile("serial", fuzzKernel)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(saved(f, fuzzKernel, nil))
	for _, c := range corruptions {
		f.Add(saved(f, fuzzKernel, c.mutate))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Load(bytes.NewReader(data), m)
		if err != nil {
			return
		}
		epvf.AnalyzeTrace(tr, epvf.Config{})
	})
}

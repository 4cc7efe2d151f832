// Package attr is the prediction-vs-ground-truth attribution ledger: a
// streaming, bounded-memory join of the ePVF model's per-bit predictions
// (crash-predicted, ACE, unACE — the paper's bit ranges) with
// fault-injection outcomes. Every FI run feeds the ledger from the
// callback of fi.Runner.Run; at finalize time each (static instruction,
// bit-class) cell is classified as agreement, crash-model false
// positive/negative, or propagation overshoot/undershoot — the
// instruction-level view behind the paper's Figure 7 validation and the
// question the aggregate rates cannot answer: *where* is the bound loose?
//
// Memory is bounded by the static instruction count (at most three cells
// per instruction, each of fixed size), never by campaign length. Ledger
// snapshots merge associatively by integer addition and carry a content
// hash under the same discipline as campaign.ShardHash, so distributed
// aggregation is bit-identical to single-process streaming.
package attr

import (
	"fmt"
	"sync"

	"repro/internal/epvf"
	"repro/internal/fi"
)

// BitClass is the model's predicted classification of the flipped bits of
// one injection target, following the paper's three bit ranges.
type BitClass int

// Bit classes. Enums start at one; the order (crash < ace < unace) is the
// canonical cell sort order inside snapshots.
const (
	// ClassCrash: at least one flipped bit is on the CRASHING_BIT_LIST —
	// the model predicts a crash.
	ClassCrash BitClass = iota + 1
	// ClassACE: the defining event is ACE and no flipped bit is
	// crash-predicted — the model predicts an SDC (or worse).
	ClassACE
	// ClassUnACE: the defining event is outside the ACE graph — the model
	// predicts a benign outcome.
	ClassUnACE
)

var classNames = map[BitClass]string{
	ClassCrash: "crash", ClassACE: "ace", ClassUnACE: "unace",
}

// String returns the class's canonical (JSON) name.
func (c BitClass) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// ParseClass inverts String for the canonical names.
func ParseClass(s string) (BitClass, bool) {
	for c, n := range classNames {
		if n == s {
			return c, true
		}
	}
	return 0, false
}

// Classes lists the bit classes in canonical order.
var Classes = []BitClass{ClassCrash, ClassACE, ClassUnACE}

// Verdict classifies one (predicted class, observed outcome) pair.
type Verdict int

// Verdicts.
const (
	// VerdictAgree: the outcome is consistent with the prediction.
	VerdictAgree Verdict = iota + 1
	// VerdictCrashFP: crash predicted, no crash observed (crash-model
	// false positive — the precision gap of §IV-B).
	VerdictCrashFP
	// VerdictCrashFN: crash observed but not predicted (crash-model false
	// negative — the recall gap).
	VerdictCrashFN
	// VerdictOvershoot: ACE predicted but the run was benign — the
	// propagation model overstates vulnerability (ePVF still upper-bounds
	// the SDC rate, just loosely here).
	VerdictOvershoot
	// VerdictUndershoot: unACE predicted but the run produced SDC, hang or
	// a detection — the dangerous direction: the model missed a
	// vulnerable bit.
	VerdictUndershoot
)

var verdictNames = map[Verdict]string{
	VerdictAgree: "agree", VerdictCrashFP: "crash_fp", VerdictCrashFN: "crash_fn",
	VerdictOvershoot: "overshoot", VerdictUndershoot: "undershoot",
}

// String returns the verdict's canonical name.
func (v Verdict) String() string {
	if s, ok := verdictNames[v]; ok {
		return s
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// Judge maps a predicted bit-class and an observed outcome to a verdict:
//
//	crash + crash            -> agree        else crash_fp
//	ace   + crash            -> crash_fn
//	ace   + benign           -> overshoot
//	ace   + SDC/hang/detect  -> agree
//	unace + crash            -> crash_fn
//	unace + benign           -> agree
//	unace + SDC/hang/detect  -> undershoot
//
// Detected counts with SDC/hang: the protected run would have corrupted
// state, so a bit the model called dead (unACE) was in fact live.
func Judge(class BitClass, o fi.Outcome) Verdict {
	switch class {
	case ClassCrash:
		if o == fi.OutcomeCrash {
			return VerdictAgree
		}
		return VerdictCrashFP
	case ClassACE:
		switch o {
		case fi.OutcomeCrash:
			return VerdictCrashFN
		case fi.OutcomeBenign:
			return VerdictOvershoot
		default:
			return VerdictAgree
		}
	default: // ClassUnACE
		switch o {
		case fi.OutcomeCrash:
			return VerdictCrashFN
		case fi.OutcomeBenign:
			return VerdictAgree
		default:
			return VerdictUndershoot
		}
	}
}

// Classifier maps injection targets to (static instruction, bit-class)
// using the per-bit predictions an epvf.Analysis exports. It is immutable
// after construction and safe for concurrent use.
type Classifier struct {
	// instr[ev] is the static instruction ID defining event ev, or -1 for
	// non-def events (which are never injection targets).
	instr []int32
	ace   []bool
	crash []uint64
}

// NewClassifier indexes the analysis's per-definition predictions for
// O(1) target classification.
func NewClassifier(a *epvf.Analysis) *Classifier {
	n := a.Trace.NumEvents()
	c := &Classifier{
		instr: make([]int32, n),
		ace:   make([]bool, n),
		crash: make([]uint64, n),
	}
	for i := range c.instr {
		c.instr[i] = -1
	}
	for _, d := range a.DefClasses() {
		c.instr[d.Event] = int32(d.InstrID)
		c.ace[d.Event] = d.ACE
		c.crash[d.Event] = d.CrashMask
	}
	return c
}

// Classify resolves a target to its static instruction and predicted
// bit-class. ok is false for targets outside the profiled trace or at
// non-def events (neither occurs for targets drawn by fi.Sampler against
// the same golden trace).
func (c *Classifier) Classify(t fi.Target) (instr int, class BitClass, ok bool) {
	if t.Event < 0 || t.Event >= int64(len(c.instr)) || c.instr[t.Event] < 0 {
		return 0, 0, false
	}
	instr = int(c.instr[t.Event])
	switch {
	case c.crash[t.Event]&t.Bits() != 0:
		return instr, ClassCrash, true
	case c.ace[t.Event]:
		return instr, ClassACE, true
	default:
		return instr, ClassUnACE, true
	}
}

// Key addresses one ledger cell.
type Key struct {
	Instr int
	Class BitClass
}

// cell is one (instruction, class) tally. All fields are plain integer
// sums, which is what makes snapshot merging associative and exact.
type cell struct {
	// outcomes is indexed by fi.Outcome (1..5; slot 0 unused).
	outcomes [6]int64
	// exc is indexed by interp.ExcKind (1..5) for crash outcomes.
	exc [6]int64
	// bitN[b] counts observations whose fault flipped bit b; bitMis[b]
	// counts those whose verdict was not agreement — the per-bit
	// drill-down and heatmap numerator.
	bitN, bitMis [64]int64
}

// Ledger is the streaming attribution accumulator. All methods are
// nil-safe no-ops on a nil receiver, so the disabled path costs one
// predictable branch (same discipline as the obs nil handles).
type Ledger struct {
	cls *Classifier

	mu      sync.Mutex
	cells   map[Key]*cell
	runs    int64
	unknown int64
}

// NewLedger creates a ledger classifying against cls.
func NewLedger(cls *Classifier) *Ledger {
	return &Ledger{cls: cls, cells: make(map[Key]*cell)}
}

// Classifier returns the ledger's classifier (nil on a nil ledger).
func (l *Ledger) Classifier() *Classifier {
	if l == nil {
		return nil
	}
	return l.cls
}

// Observe tallies one completed FI record. Safe for concurrent use.
func (l *Ledger) Observe(rec fi.Record) {
	if l == nil {
		return
	}
	instr, class, ok := l.cls.Classify(rec.Target)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.runs++
	if !ok {
		l.unknown++
		return
	}
	c := l.cells[Key{Instr: instr, Class: class}]
	if c == nil {
		c = &cell{}
		l.cells[Key{Instr: instr, Class: class}] = c
	}
	if rec.Outcome >= 1 && int(rec.Outcome) < len(c.outcomes) {
		c.outcomes[rec.Outcome]++
	}
	if rec.Outcome == fi.OutcomeCrash && rec.Exc >= 1 && int(rec.Exc) < len(c.exc) {
		c.exc[rec.Exc]++
	}
	mis := Judge(class, rec.Outcome) != VerdictAgree
	bits := rec.Target.Bits()
	for b := 0; b < 64 && bits != 0; b++ {
		if bits&(1<<uint(b)) == 0 {
			continue
		}
		bits &^= 1 << uint(b)
		c.bitN[b]++
		if mis {
			c.bitMis[b]++
		}
	}
}

// Runs returns how many records the ledger has observed (0 on nil).
func (l *Ledger) Runs() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.runs
}

// Snapshot freezes the ledger into its canonical mergeable form. Returns
// nil on a nil ledger.
func (l *Ledger) Snapshot() *Snapshot {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return snapshotCells(l.cells, l.runs, l.unknown)
}

// Absorb adds a snapshot's tallies into the ledger — the coordinator-side
// half of distributed aggregation. Because every tally is an integer sum,
// absorbing per-shard snapshots in any grouping or order yields the same
// ledger as streaming the underlying records. No-op on nil ledger or
// snapshot.
func (l *Ledger) Absorb(s *Snapshot) {
	if l == nil || s == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.runs += s.Runs
	l.unknown += s.Unknown
	for i := range s.Cells {
		cj := &s.Cells[i]
		class, ok := ParseClass(cj.Class)
		if !ok {
			continue
		}
		c := l.cells[Key{Instr: cj.Instr, Class: class}]
		if c == nil {
			c = &cell{}
			l.cells[Key{Instr: cj.Instr, Class: class}] = c
		}
		c.addJSON(cj)
	}
}

// Collect classifies a batch of records into a standalone snapshot — how
// the dist coordinator derives a shard's ledger contribution from the
// records it just verified.
func Collect(cls *Classifier, recs []fi.Record) *Snapshot {
	l := NewLedger(cls)
	for _, rec := range recs {
		l.Observe(rec)
	}
	return l.Snapshot()
}

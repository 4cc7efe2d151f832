package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/attr"
	"repro/internal/fi"
	"repro/internal/obs"
)

// Log record kinds. A campaign log is append-only JSONL: one header, then
// run records in completion order (each self-identifying by run index),
// shard checkpoints, and optionally one stop record. Because every run
// record carries its index, the log is valid in any interleaving — crash
// mid-write loses at most the unflushed tail, never consistency.
const (
	kindHeader    = "header"
	kindRun       = "run"
	kindShardDone = "shard_done"
	kindStop      = "stop"
	// kindAttr carries an attribution-ledger snapshot (appended at
	// checkpoint/finish time; on replay the last one wins). It is a
	// convenience cache: `campaign attr` can always recompute the ledger
	// from the run records when the module is available.
	kindAttr = "attr"
	// kindSpans carries a batch of completed trace spans (shard spans,
	// injection exemplars, remote daemon spans) persisted at checkpoints.
	// Replay deduplicates by (trace, span) ID with the first occurrence
	// winning, so requeued shards and resumed campaigns never
	// double-count — the same rule the record merge applies via shard
	// hashes. `campaign trace` reads them back into cross-process trees.
	kindSpans = "spans"
)

// logRecord is the envelope for every JSONL line.
type logRecord struct {
	Kind string `json:"kind"`
	// header
	Plan *Plan `json:"plan,omitempty"`
	// run: RunRec's fields, omitted when zero so run lines keep their
	// pinned bytes; runLine and run convert.
	Index   int64  `json:"index,omitempty"`
	Event   int64  `json:"event,omitempty"`
	Bit     int    `json:"bit,omitempty"`
	Mask    uint64 `json:"mask,omitempty"`
	Outcome int    `json:"outcome,omitempty"`
	Exc     int    `json:"exc,omitempty"`
	// shard_done
	Shard int `json:"shard,omitempty"`
	// stop
	Done   int64  `json:"done,omitempty"`
	Saved  int64  `json:"saved,omitempty"`
	Reason string `json:"reason,omitempty"`
	// attr
	Attr *attr.Snapshot `json:"attr,omitempty"`
	// spans
	Spans []obs.SpanRecord `json:"spans,omitempty"`
}

// runLine is the log record of one run.
func runLine(r RunRec) logRecord {
	return logRecord{
		Kind:    kindRun,
		Index:   r.Index,
		Event:   r.Event,
		Bit:     r.Bit,
		Mask:    r.Mask,
		Outcome: r.Outcome,
		Exc:     r.Exc,
	}
}

// run returns a run line's fields.
func (lr logRecord) run() RunRec {
	return RunRec{Index: lr.Index, Event: lr.Event, Bit: lr.Bit, Mask: lr.Mask, Outcome: lr.Outcome, Exc: lr.Exc}
}

// maxLogLine bounds one log line, newline included. ReadLog cannot read
// a longer line, so DurableLog refuses to write one.
const maxLogLine = 4 << 20

// errLineTooLong marks a record whose line would exceed maxLogLine.
var errLineTooLong = errors.New("record exceeds the log line limit")

// lineEncoder encodes log records, one JSON line each, into a reusable
// buffer, refusing any line longer than maxLogLine.
type lineEncoder struct {
	line bytes.Buffer
	enc  *json.Encoder
}

func newLineEncoder() *lineEncoder {
	e := &lineEncoder{}
	e.enc = json.NewEncoder(&e.line)
	return e
}

// encode returns rec's line; it is valid until the next call.
func (e *lineEncoder) encode(rec logRecord) ([]byte, error) {
	e.line.Reset()
	if err := e.enc.Encode(rec); err != nil {
		return nil, fmt.Errorf("campaign: encoding log record: %w", err)
	}
	if n := e.line.Len(); n > maxLogLine {
		return nil, fmt.Errorf("campaign: %s record of %d bytes: %w of %d bytes", rec.Kind, n, errLineTooLong, maxLogLine)
	}
	return e.line.Bytes(), nil
}

// CheckSpans reports the first span too large to log even in a record of
// its own; a span append refuses any batch holding one.
func CheckSpans(spans []obs.SpanRecord) error {
	e := newLineEncoder()
	for i := range spans {
		if _, err := e.encode(logRecord{Kind: kindSpans, Spans: spans[i : i+1]}); err != nil {
			return fmt.Errorf("span %s: %w", spans[i].SpanID, err)
		}
	}
	return nil
}

// DurableLog is the one writer of campaign logs: the engine, the dist
// coordinator, the merge and the CLIs all append through it. Appends are
// buffered; a checkpoint flushes and fsyncs them, so what a checkpoint
// covered survives a crash and the file is always a valid input to
// ReadLog, `campaign resume` and `campaign merge`. The exported appends
// checkpoint before they return.
type DurableLog struct {
	f   *os.File
	buf *bufio.Writer
	*lineEncoder
}

// OpenDurableLog opens plan's log at path for appending and returns what
// it already holds. An existing log must carry a compatible plan; an
// absent one is created with the plan header and reads as empty.
func OpenDurableLog(path string, plan *Plan) (*DurableLog, *LogData, error) {
	d, err := ReadLog(path)
	fresh := false
	switch {
	case err == nil:
		if err := plan.Compatible(d.Plan); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
	case os.IsNotExist(err):
		fresh = true
		d = newLogData(plan)
	default:
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: opening log: %w", err)
	}
	if !fresh {
		return newDurableLog(f), d, nil
	}
	l, err := startLog(f, plan)
	if err != nil {
		return nil, nil, err
	}
	return l, d, nil
}

func newDurableLog(f *os.File) *DurableLog {
	return &DurableLog{f: f, buf: bufio.NewWriterSize(f, 1<<16), lineEncoder: newLineEncoder()}
}

// startLog starts a log in the empty file f: it writes and syncs the
// plan header. It closes f when it fails.
func startLog(f *os.File, plan *Plan) (*DurableLog, error) {
	l := newDurableLog(f)
	if err := l.append(logRecord{Kind: kindHeader, Plan: plan}); err != nil {
		f.Close()
		return nil, err
	}
	if err := l.checkpoint(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// append writes one record, or nothing when its line would exceed
// maxLogLine.
func (l *DurableLog) append(rec logRecord) error {
	line, err := l.encode(rec)
	if err != nil {
		return err
	}
	if _, err := l.buf.Write(line); err != nil {
		return fmt.Errorf("campaign: appending log record: %w", err)
	}
	return nil
}

// appendSpans writes a span batch as one record when it fits a line, else
// as halves, recursively. Readers dedup spans by ID, so the split is
// invisible to them. A span too large for a line of its own refuses the
// batch before anything is written.
func (l *DurableLog) appendSpans(spans []obs.SpanRecord) error {
	err := l.append(logRecord{Kind: kindSpans, Spans: spans})
	if !errors.Is(err, errLineTooLong) {
		return err
	}
	if err := CheckSpans(spans); err != nil {
		return err
	}
	return l.appendHalves(spans)
}

// appendHalves writes spans, each of which fits a line alone, as two
// halves, splitting further any half that does not fit.
func (l *DurableLog) appendHalves(spans []obs.SpanRecord) error {
	mid := len(spans) / 2
	for _, half := range [][]obs.SpanRecord{spans[:mid], spans[mid:]} {
		err := l.append(logRecord{Kind: kindSpans, Spans: half})
		if errors.Is(err, errLineTooLong) {
			err = l.appendHalves(half)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// checkpoint makes everything appended so far durable.
func (l *DurableLog) checkpoint() error {
	if err := l.buf.Flush(); err != nil {
		return fmt.Errorf("campaign: flushing log: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("campaign: fsync log: %w", err)
	}
	return nil
}

// AppendShard durably records one completed shard: its run records, the
// shard_done marker, and a checkpoint. After it returns, a crashed and
// restarted reader replays the shard as done.
func (l *DurableLog) AppendShard(shard int, recs []RunRec) error {
	for _, r := range recs {
		if err := l.append(runLine(r)); err != nil {
			return err
		}
	}
	if err := l.append(logRecord{Kind: kindShardDone, Shard: shard}); err != nil {
		return err
	}
	return l.checkpoint()
}

// AppendAttr durably records an attribution-ledger snapshot. The log may
// carry several (one per checkpoint); replay keeps the last.
func (l *DurableLog) AppendAttr(s *attr.Snapshot) error {
	if s == nil {
		return nil
	}
	if err := l.append(logRecord{Kind: kindAttr, Attr: s}); err != nil {
		return err
	}
	return l.checkpoint()
}

// AppendSpans durably records a batch of trace spans (a shard's subtree,
// a campaign root, a daemon's handling spans). Readers dedup by span ID,
// so the caller only filters for economy, not correctness.
func (l *DurableLog) AppendSpans(spans []obs.SpanRecord) error {
	if len(spans) == 0 {
		return nil
	}
	if err := l.appendSpans(spans); err != nil {
		return err
	}
	return l.checkpoint()
}

// Close checkpoints and closes the log.
func (l *DurableLog) Close() error {
	if err := l.checkpoint(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// LogData is the parsed form of a campaign log: what resume, status,
// merge, `campaign attr`, `campaign trace` and a restarted dist
// coordinator read back.
type LogData struct {
	Plan *Plan
	// Records maps run index to its result for every logged run.
	Records map[int64]fi.Record
	// Stopped is set when the log carries an adaptive-stop decision.
	Stopped bool
	Saved   int64
	Reason  string
	// Attr is the last attribution snapshot in the log, nil when the
	// campaign ran without a ledger.
	Attr *attr.Snapshot
	// Spans are the persisted trace spans, deduplicated by span ID in
	// first-appearance order; empty when the campaign ran untraced.
	// `campaign trace` assembles them into cross-process trees.
	Spans []obs.SpanRecord
	// spanSeen backs the span dedup.
	spanSeen map[string]bool
	// logged counts the distinct runs read so far per shard.
	logged map[int]int64
}

func newLogData(plan *Plan) *LogData {
	return &LogData{Plan: plan, Records: make(map[int64]fi.Record), logged: make(map[int]int64)}
}

// ReadLog parses a campaign log. A trailing partial line (torn write from
// a crash) is tolerated and ignored; any other malformed content is an
// error. Returns os.ErrNotExist when the file is absent.
func ReadLog(path string) (*LogData, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d := newLogData(nil)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), maxLogLine)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec logRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			// A torn final line is the expected crash artifact; anything
			// before the end is corruption.
			if moreData(sc) {
				return nil, fmt.Errorf("campaign: %s:%d: malformed log record: %v", path, line, err)
			}
			break
		}
		if err := d.check(rec); err != nil {
			return nil, fmt.Errorf("campaign: %s:%d: %w", path, line, err)
		}
		switch rec.Kind {
		case kindHeader:
			d.Plan = rec.Plan
		case kindRun:
			if _, dup := d.Records[rec.Index]; !dup {
				d.logged[int(rec.Index/d.Plan.ShardSize)]++
			}
			d.Records[rec.Index] = rec.run().Record()
		case kindShardDone:
			// check has verified it; CompleteShards derives completion
			// from the runs alone.
		case kindStop:
			d.Stopped = true
			d.Saved = rec.Saved
			d.Reason = rec.Reason
		case kindAttr:
			d.Attr = rec.Attr
		case kindSpans:
			d.addSpans(rec.Spans)
		default:
			return nil, fmt.Errorf("campaign: %s:%d: unknown record kind %q", path, line, rec.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("campaign: reading log %s: %w", path, err)
	}
	if d.Plan == nil {
		return nil, fmt.Errorf("campaign: log %s has no plan header", path)
	}
	return d, nil
}

// check rejects a parsed record that no campaign writes: a second or
// empty header, a plan with no runs or shards or whose shard count
// overflows, run or shard_done records before the header or outside its
// plan's geometry and enums, and a shard_done ahead of any of its runs.
func (d *LogData) check(rec logRecord) error {
	switch rec.Kind {
	case kindHeader:
		switch {
		case d.Plan != nil:
			return fmt.Errorf("duplicate header")
		case rec.Plan == nil:
			return fmt.Errorf("header carries no plan")
		case rec.Plan.Runs <= 0 || rec.Plan.ShardSize <= 0:
			return fmt.Errorf("plan has %d runs in shards of %d, want both positive", rec.Plan.Runs, rec.Plan.ShardSize)
		case rec.Plan.Runs > math.MaxInt64-(rec.Plan.ShardSize-1):
			return fmt.Errorf("plan has %d runs in shards of %d, too many to count shards", rec.Plan.Runs, rec.Plan.ShardSize)
		}
	case kindRun:
		if d.Plan == nil {
			return fmt.Errorf("run record before the plan header")
		}
		return rec.run().Check(d.Plan)
	case kindShardDone:
		switch {
		case d.Plan == nil:
			return fmt.Errorf("shard_done record before the plan header")
		case rec.Shard < 0 || rec.Shard >= d.Plan.NumShards():
			return fmt.Errorf("shard %d outside [0, %d)", rec.Shard, d.Plan.NumShards())
		}
		if lo, hi := d.Plan.ShardRange(rec.Shard); d.logged[rec.Shard] != hi-lo {
			return fmt.Errorf("shard_done %d after %d of its %d runs", rec.Shard, d.logged[rec.Shard], hi-lo)
		}
	}
	return nil
}

// Done returns the number of distinct logged runs.
func (d *LogData) Done() int64 { return int64(len(d.Records)) }

// SortedRecords returns the log's records in run-index order.
func (d *LogData) SortedRecords() []fi.Record {
	idxs := d.sortedIndices()
	out := make([]fi.Record, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, d.Records[i])
	}
	return out
}

func (d *LogData) sortedIndices() []int64 {
	idxs := make([]int64, 0, len(d.Records))
	for i := range d.Records {
		idxs = append(idxs, i)
	}
	slices.Sort(idxs)
	return idxs
}

// addSpans folds a span batch in, deduplicating by (trace, span) ID —
// first occurrence wins, so a requeued shard's re-shipped subtree or a
// resumed campaign's re-emitted deterministic root changes nothing.
func (d *LogData) addSpans(spans []obs.SpanRecord) {
	if d.spanSeen == nil {
		d.spanSeen = make(map[string]bool)
	}
	for _, sp := range spans {
		if sp.SpanID == "" {
			continue
		}
		key := sp.TraceID + "/" + sp.SpanID
		if d.spanSeen[key] {
			continue
		}
		d.spanSeen[key] = true
		d.Spans = append(d.Spans, sp)
	}
}

// moreData reports whether the scanner still has content after the current
// token — i.e. the just-failed line was not the final one.
func moreData(sc *bufio.Scanner) bool {
	return sc.Scan()
}

// CompleteShards returns, in ascending order, the shards whose every run
// is among the records; ReadLog has checked that each shard_done shard is
// one of them. It visits only the shards the records name, so its cost
// follows the log, not the plan's run count.
func (d *LogData) CompleteShards() []int {
	p := d.Plan
	logged := make(map[int]int64)
	for idx := range d.Records {
		logged[int(idx/p.ShardSize)]++
	}
	var out []int
	for s, n := range logged {
		if lo, hi := p.ShardRange(s); n == hi-lo {
			out = append(out, s)
		}
	}
	slices.Sort(out)
	return out
}

// MergeLogs combines shard logs produced by separate processes running the
// same plan into one log at out. Inputs must share an identical plan.
// Duplicate deliveries of the same work — overlapping log directories, or
// at-least-once redelivery from the dist fabric — are deduplicated before
// tallying: complete shards by their content hash (ShardHash), loose runs
// by index. A duplicate whose content *differs* is rejected loudly, since
// identical plans must produce identical records; silent double-counting
// is impossible either way. Returns the merged log as read back.
//
// The merged log is written to a temporary file beside out, synced, and
// renamed over out only once complete, so out may already exist or be
// one of the inputs: either way it ends up holding exactly the merge.
//
// Attribution snapshots in the inputs are dropped rather than merged:
// input logs may cover overlapping record sets, and a cached ledger says
// nothing about which records produced it — `campaign attr` recomputes
// the ledger from the merged run records, which is always exact.
func MergeLogs(out string, inputs []string) (*LogData, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("campaign: merge needs at least one input log")
	}
	var plan *Plan
	// merged accumulates the union; addSpans dedups spans across inputs.
	merged := newLogData(nil)
	records := merged.Records
	recordSrc := make(map[int64]string)
	shardHashes := make(map[int]string)
	shardSrc := make(map[int]string)
	for _, in := range inputs {
		d, err := ReadLog(in)
		if err != nil {
			return nil, err
		}
		if plan == nil {
			plan = d.Plan
		} else if err := plan.Compatible(d.Plan); err != nil {
			return nil, fmt.Errorf("%s: %w", in, err)
		}
		// Complete shards dedupe wholesale by content hash.
		for _, s := range d.CompleteShards() {
			lo, hi := plan.ShardRange(s)
			recs := make([]RunRec, 0, hi-lo)
			for idx := lo; idx < hi; idx++ {
				recs = append(recs, NewRunRec(idx, d.Records[idx]))
			}
			h := ShardHash(plan.ID, s, recs)
			if prev, ok := shardHashes[s]; ok {
				if prev != h {
					return nil, fmt.Errorf("campaign: merge conflict: shard %d content %s in %s vs %s in %s (plan %s) — inputs disagree on identical work",
						s, h, in, prev, shardSrc[s], plan.ID)
				}
				continue // exact duplicate shard: already merged
			}
			shardHashes[s] = h
			shardSrc[s] = in
		}
		for idx, rec := range d.Records {
			if old, ok := records[idx]; ok {
				if old != rec {
					return nil, fmt.Errorf("campaign: merge conflict: run %d differs between %s and %s (plan %s)",
						idx, in, recordSrc[idx], plan.ID)
				}
				continue
			}
			records[idx] = rec
			recordSrc[idx] = in
		}
		if d.Stopped {
			merged.Stopped = true
			merged.Saved = d.Saved
			merged.Reason = d.Reason
		}
		merged.addSpans(d.Spans)
	}
	merged.Plan = plan
	f, err := os.CreateTemp(filepath.Dir(out), filepath.Base(out)+".tmp-")
	if err != nil {
		return nil, fmt.Errorf("campaign: merge: %w", err)
	}
	defer os.Remove(f.Name()) // fails harmlessly once renamed over out
	l, err := startLog(f, plan)
	if err != nil {
		return nil, err
	}
	err = merged.writeTo(l)
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), out)
	}
	if err != nil {
		return nil, err
	}
	return ReadLog(out)
}

// writeTo appends a merge's body to a log whose header is written: the
// runs in index order, the complete shards, the stop decision if any
// input carried one, and the deduplicated spans.
func (d *LogData) writeTo(l *DurableLog) error {
	for _, idx := range d.sortedIndices() {
		if err := l.append(runLine(NewRunRec(idx, d.Records[idx]))); err != nil {
			return err
		}
	}
	for _, s := range d.CompleteShards() {
		if err := l.append(logRecord{Kind: kindShardDone, Shard: s}); err != nil {
			return err
		}
	}
	if d.Stopped {
		if err := l.append(logRecord{Kind: kindStop, Done: d.Done(), Saved: d.Saved, Reason: d.Reason}); err != nil {
			return err
		}
	}
	if len(d.Spans) > 0 {
		return l.appendSpans(d.Spans)
	}
	return nil
}
